// Package cluster is the horizontal serving tier over the
// transport-agnostic serving.Engine seam: a node registry with
// health-checked members, consistent-hash model placement with a
// configurable replication factor, and a routing engine that proxies
// predictions to owner nodes with failover retry and per-node circuit
// breaking.
//
// Placement is the cluster-scale analog of the paper's §4.2 Object
// Store sharing: instead of replicating every model on every node (the
// black-box tier's default), a model lives on K of N nodes, so fleet
// memory grows with K·models, not N·models — sublinear in fleet size —
// while the white-box management plane still sees and steers every
// replica.
package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// defaultVNodes is the router's virtual-node count per member: enough
// points that K-of-N ownership spreads evenly for small fleets without
// making ring updates expensive.
const defaultVNodes = 64

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is a consistent-hash circle of node IDs. It is not
// goroutine-safe; the router guards it, and the rebalancer swaps in a
// clone with members added or removed.
type Ring struct {
	vnodes int
	points []ringPoint
	nodes  map[string]bool
}

// NewRing builds an empty ring with the given virtual-node count per
// member (<= 0 picks defaultVNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]bool)}
}

// VNodes returns the per-member virtual-node count.
func (r *Ring) VNodes() int { return r.vnodes }

// hash64 is FNV-1a with a murmur-style 64-bit finalizer. Raw FNV of
// short strings that differ only in a suffix ("node0#1", "node0#2",
// …) lands in one narrow arc of the circle — every virtual node of a
// member clustered together, defeating the whole point of virtual
// nodes. The avalanche mix decorrelates them.
func hash64(s string) uint64 {
	f := fnv.New64a()
	_, _ = f.Write([]byte(s))
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Add inserts a node's virtual points into the ring.
func (r *Ring) Add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: hash64(node + "#" + strconv.Itoa(i)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a node's virtual points from the ring. Keys the node
// owned move to their clockwise successors; everything else stays put
// — the consistent-hash property that makes membership changes cheap.
func (r *Ring) Remove(node string) {
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Clone returns an independent copy of the ring — the rebalancer
// computes ownership deltas on a clone and swaps it in atomically, so
// routing never observes a half-updated circle.
func (r *Ring) Clone() *Ring {
	c := &Ring{
		vnodes: r.vnodes,
		points: append([]ringPoint(nil), r.points...),
		nodes:  make(map[string]bool, len(r.nodes)),
	}
	for n := range r.nodes {
		c.nodes[n] = true
	}
	return c
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// Owners returns the K distinct nodes owning a key: the first K
// distinct members encountered walking the circle clockwise from the
// key's hash. K is clamped to the member count. The first owner is the
// key's primary; the rest are its failover replicas.
func (r *Ring) Owners(key string, k int) []string {
	n := len(r.nodes)
	if n == 0 || k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]string, 0, k)
	seen := make(map[string]bool, k)
	for i := 0; i < len(r.points) && len(owners) < k; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			owners = append(owners, p.node)
		}
	}
	return owners
}
