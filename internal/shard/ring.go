package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// virtualNodes is how many ring points each shard contributes: enough
// to smooth the key distribution without a large ring.
const virtualNodes = 64

// ring is a consistent-hash ring: each shard contributes virtualNodes
// points, and an enrollment ID is owned by the shard whose point is the
// first at or clockwise of the ID's hash. Virtual nodes smooth the
// per-shard load and bound the fraction of IDs that move when a shard
// is added or removed to roughly 1/len(shards).
type ring struct {
	points []ringPoint // sorted by (hash, shard)
}

type ringPoint struct {
	hash  uint64
	shard int // backend position
}

// hashKey is FNV-1a 64 through a splitmix64-style finalizer — stable
// across processes and Go versions, which persistence and remote
// routing both depend on. The finalizer matters: raw FNV-1a keeps
// sequential IDs ("subject-0001", "subject-0002", …) numerically
// adjacent, which collapses them onto the same ring arc and wrecks the
// shard balance.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func newRing(names []string) *ring {
	pts := make([]ringPoint, 0, len(names)*virtualNodes)
	for i, name := range names {
		for v := 0; v < virtualNodes; v++ {
			pts = append(pts, ringPoint{hash: hashKey(fmt.Sprintf("%s#%d", name, v)), shard: i})
		}
	}
	sort.Slice(pts, func(a, b int) bool {
		if pts[a].hash != pts[b].hash {
			return pts[a].hash < pts[b].hash
		}
		return pts[a].shard < pts[b].shard
	})
	return &ring{points: pts}
}

// owner returns the backend position responsible for id.
func (r *ring) owner(id string) int {
	h := hashKey(id)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}
