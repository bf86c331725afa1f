package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"

	"prefetch/internal/multiclient"
)

// fingerprint hashes every field of a Result — aggregates, per-client
// and per-replica entries, unexported accumulator state included — with
// floats taken as their IEEE bit patterns. Two runs share a fingerprint
// only if they agree on every bit the simulator reported.
func fingerprint(res any) string {
	var b bytes.Buffer
	v := reflect.ValueOf(res)
	b.WriteString(v.Type().String())
	hashValue(&b, v)
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:16])
}

func hashValue(b *bytes.Buffer, v reflect.Value) {
	var word [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(word[:], u)
		b.Write(word[:])
	}
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			b.WriteString(t.Field(i).Name)
			hashValue(b, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(b, v.Index(i))
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
		b.WriteString(v.String())
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			put(0)
			return
		}
		put(1)
		hashValue(b, v.Elem())
	default:
		panic(fmt.Sprintf("perfbench: cannot fingerprint a %s", v.Kind()))
	}
}

// recordedJSON maps workload → benchmark seed → the fingerprints of its
// sub-seeds, at the default scale. Refresh an entry with
// `perfbench -record -workload W -seed N`.
//
//go:embed fingerprints.json
var recordedJSON []byte

func recordedFingerprints(workload string, seed uint64) ([]string, bool) {
	var table map[string]map[string][]string
	if err := json.Unmarshal(recordedJSON, &table); err != nil {
		panic(fmt.Sprintf("perfbench: fingerprints.json: %v", err))
	}
	fps, ok := table[workload][strconv.FormatUint(seed, 10)]
	return fps, ok && len(fps) == subSeeds
}

// gate checks every run of one invocation. A run passes when it returns
// no error, obeys the conservation laws, and matches its reference
// fingerprint: the recorded one for its sub-seed when the benchmark seed
// is recorded, otherwise the first run of the same sub-seed (so repeats
// must replay bit for bit). strict refuses unrecorded seeds outright.
type gate struct {
	want      map[uint64]string // Config.Seed → reference fingerprint
	recorded  bool
	strict    bool
	attempted int
	failed    int
}

func newGate(workload string, seed uint64, strict, small bool) *gate {
	g := &gate{want: map[uint64]string{}, strict: strict}
	if fps, ok := recordedFingerprints(workload, seed); ok && !small {
		// Fingerprints are recorded at full scale only.
		g.recorded = true
		for k, fp := range fps {
			g.want[subSeed(seed, k)] = fp
		}
	}
	return g
}

// check records one attempted run of cfg and reports whether it passed;
// the error says why not.
func (g *gate) check(cfg multiclient.Config, res any, err error) (bool, error) {
	g.attempted++
	if err == nil {
		err = conserved(res, cfg)
	}
	if err == nil {
		fp := fingerprint(res)
		want, known := g.want[cfg.Seed]
		switch {
		case known && fp != want:
			err = fmt.Errorf("fingerprint %s, want %s", fp, want)
		case !known && g.strict:
			err = fmt.Errorf("no fingerprint recorded for seed %d", cfg.Seed)
		case !known:
			g.want[cfg.Seed] = fp
		}
	}
	if err != nil {
		g.failed++
		return false, err
	}
	return true, nil
}

// source describes where the reference fingerprints come from.
func (g *gate) source() string {
	switch {
	case g.recorded:
		return "recorded"
	case g.strict:
		return "none recorded (strict: every run fails)"
	}
	return "first run of each sub-seed (seed not recorded; repeats must match)"
}
