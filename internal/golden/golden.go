// Package golden digests simulation results for golden tests: a test
// pins the digest of a fixed run's full Result (and of its decision
// trace bytes), so a refactor that changes any reported bit fails even
// when every path of the new code agrees with every other.
package golden

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
)

// Digest returns the hex SHA-256 of every field of v, walked by
// reflection — unexported fields included, struct field names and slice
// lengths mixed in, floats taken as their IEEE bit patterns — prefixed
// by v's type name. Two values share a digest only if they agree on
// every bit.
func Digest(v any) string {
	h := sha256.New()
	rv := reflect.ValueOf(v)
	h.Write([]byte(rv.Type().String()))
	write(h, rv)
	return hex.EncodeToString(h.Sum(nil))
}

// Bytes returns the hex SHA-256 of raw bytes (a JSONL trace).
func Bytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func write(h hash.Hash, v reflect.Value) {
	var word [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(word[:], u)
		h.Write(word[:])
	}
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			h.Write([]byte(t.Field(i).Name))
			write(h, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			write(h, v.Index(i))
		}
	case reflect.Float32, reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		put(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.String:
		put(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			put(0)
			return
		}
		put(1)
		write(h, v.Elem())
	default:
		panic(fmt.Sprintf("golden: cannot digest a %s", v.Kind()))
	}
}
