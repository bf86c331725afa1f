package fleet

import (
	"fmt"
	"sort"

	"prefetch/internal/multiclient"
)

// Kind selects a routing policy.
type Kind string

// The built-in routers.
const (
	// KindRoundRobin cycles client requests over the live replicas in
	// replica order — the classic load-spreading baseline. Cold caches
	// and diluted predictors are the price: a client's accesses scatter
	// over the whole fleet.
	KindRoundRobin Kind = "round-robin"
	// KindLeastLoaded sends each request to the live replica with the
	// smallest backlog (queued + in-flight, scheduler feedback via
	// Peek), ties broken by replica id. Tracks instantaneous congestion
	// at the cost of the same affinity loss as round-robin.
	KindLeastLoaded Kind = "least-loaded"
	// KindHash pins each client to a home replica on a consistent-hash
	// ring (virtual nodes, keyed on the client id). Affinity
	// concentrates a client's access stream — and therefore the shared
	// predictor's training signal and the server cache's hot set — on
	// one replica, and a failure moves only the failed replica's
	// clients (bounded movement), at the cost of ignoring load.
	KindHash Kind = "hash"
)

// Kinds returns the router kinds in presentation order.
func Kinds() []Kind { return []Kind{KindRoundRobin, KindLeastLoaded, KindHash} }

// ReplicaState is one replica's routing-time state: whether it is up and
// its scheduler's untraced congestion feedback.
type ReplicaState = multiclient.ReplicaState

// Router places one request on a replica. Implementations must be
// deterministic pure functions of their own state and the arguments —
// no wall clock, no global RNG — so fleet runs replay bit for bit.
type Router = multiclient.Router

// NewRouter builds the named router for a fleet of the given size.
// An empty kind means KindRoundRobin.
func NewRouter(kind Kind, replicas int) (Router, error) {
	switch kind {
	case "", KindRoundRobin:
		return &roundRobin{}, nil
	case KindLeastLoaded:
		return leastLoaded{}, nil
	case KindHash:
		return newHashRing(replicas), nil
	default:
		return nil, fmt.Errorf("%w: unknown router %q", ErrBadConfig, kind)
	}
}

// roundRobin cycles over live replicas with a rotating cursor. The
// cursor advances only on successful placements, so a run of failures
// does not skew the rotation.
type roundRobin struct {
	next int
}

func (r *roundRobin) Name() string { return string(KindRoundRobin) }

func (r *roundRobin) Route(client, page int, states []ReplicaState) (int, bool) {
	n := len(states)
	for i := 0; i < n; i++ {
		id := (r.next + i) % n
		if states[id].Up {
			r.next = (id + 1) % n
			return id, true
		}
	}
	return 0, false
}

func (r *roundRobin) Home(client, replicas int) int { return client % replicas }

// leastLoaded picks the live replica with the smallest backlog
// (queued + in-flight), ties broken by replica id — an integer-only key,
// so the choice never hinges on float rounding.
type leastLoaded struct{}

func (leastLoaded) Name() string { return string(KindLeastLoaded) }

func (leastLoaded) Route(client, page int, states []ReplicaState) (int, bool) {
	best, bestLoad, found := 0, 0, false
	for _, st := range states {
		if !st.Up {
			continue
		}
		load := st.Feedback.Queued + st.Feedback.InFlight
		if !found || load < bestLoad {
			best, bestLoad, found = st.ID, load, true
		}
	}
	return best, found
}

func (leastLoaded) Home(client, replicas int) int { return client % replicas }

// vnodesPerReplica is the virtual-node count per replica on the hash
// ring. Enough to spread clients roughly evenly at small fleet sizes
// without making ring construction noticeable.
const vnodesPerReplica = 64

// hashRing is a consistent-hash router: replicas own vnodesPerReplica
// points on a 64-bit ring, a client maps to the first point clockwise of
// its own hash, and a down replica's clients walk on to the next live
// owner. Ring membership is fixed for a run (failures mask points rather
// than removing them), so a recovering replica gets exactly its old
// clients back.
type hashRing struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash    uint64
	replica int
}

func newHashRing(replicas int) *hashRing {
	r := &hashRing{points: make([]ringPoint, 0, replicas*vnodesPerReplica)}
	for id := 0; id < replicas; id++ {
		for v := 0; v < vnodesPerReplica; v++ {
			h := fnv64(fmt.Sprintf("replica/%d/vnode/%d", id, v))
			r.points = append(r.points, ringPoint{hash: h, replica: id})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].replica < r.points[b].replica
	})
	return r
}

func (r *hashRing) Name() string { return string(KindHash) }

// owner walks the ring clockwise from the client's hash until a point
// whose replica satisfies live, or reports false after a full lap.
func (r *hashRing) owner(client int, live func(int) bool) (int, bool) {
	h := fnv64(fmt.Sprintf("client/%d", client))
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if live(p.replica) {
			return p.replica, true
		}
	}
	return 0, false
}

func (r *hashRing) Route(client, page int, states []ReplicaState) (int, bool) {
	return r.owner(client, func(id int) bool { return states[id].Up })
}

func (r *hashRing) Home(client, replicas int) int {
	id, _ := r.owner(client, func(int) bool { return true })
	return id
}

// fnv64 is FNV-1a over the string bytes with a 64-bit avalanche
// finaliser — fixed and platform-independent, so ring layouts (and
// therefore routing decisions) are identical everywhere. Raw FNV-1a is
// not enough here: its last input byte barely diffuses, so the
// sequential "client/N" keys cluster on the ring and small fleets end up
// with ownerless replicas. The multiply–xor–shift finaliser (the
// splitmix64/murmur3 construction) spreads them.
func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
