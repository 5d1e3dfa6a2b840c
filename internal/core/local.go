package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"qasom/internal/cluster"
	"qasom/internal/qos"
	"qasom/internal/registry"
)

// localScratch bundles the transient working buffers of one localSelect
// run — the clustering scratch, the normalizer population view, the
// per-property score column, and the rank matrix. Everything in it is
// fully overwritten before use and nothing escapes the call, so pooled
// reuse cannot change results; only Scores (retained by the returned
// RankedCandidates) is allocated fresh, as a single backing array. perm
// is the ranking permutation (see rankInPlace).
type localScratch struct {
	cl        cluster.Scratch
	vecs      []qos.Vector
	values    []float64
	ranks     [][]int
	ranksBack []int
	perm      []int32
}

var localScratchPool = sync.Pool{New: func() any { return new(localScratch) }}

// RankedCandidate is one service after the local selection phase: its
// normalized scores, utility, and its position in the QoS level/class
// structure of §3.2 (Level is the best cluster rank r* the service
// reaches on any property; ClassSize is e, the number of properties
// whose cluster has that rank — the service belongs to QoS class
// QC_{r*,e}).
type RankedCandidate struct {
	Service registry.Description
	// Vector is the raw advertised QoS vector.
	Vector qos.Vector
	// Scores is the direction-adjusted normalized vector ([0,1], 1 best).
	Scores qos.Vector
	// Utility is the weighted utility of Scores.
	Utility float64
	// Level is the service's QoS level r* (1 = best).
	Level int
	// ClassSize is e: how many properties sit in rank-r* clusters.
	ClassSize int
}

// LocalResult is the outcome of the local phase for one activity: the
// candidates ordered best-first by (Level asc, ClassSize desc, Utility
// desc), plus the number of levels produced by the clustering.
type LocalResult struct {
	ActivityID string
	Ranked     []RankedCandidate
	Levels     int
}

// Candidate converts a ranked entry back to a registry candidate.
func (rc *RankedCandidate) Candidate() registry.Candidate {
	return registry.Candidate{Service: rc.Service, Vector: rc.Vector}
}

// localSelect runs the local selection phase of QASSA for one activity
// (§3.2): min–max normalize the candidate population, cluster each
// property's scores into K ranked clusters with K-means, grade every
// service into its QoS level and class, and emit the ranked shortlist.
func localSelect(activityID string, cands []registry.Candidate, ps *qos.PropertySet,
	weights qos.Weights, k int, seeding cluster.Seeding, rng *rand.Rand) (*LocalResult, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("core: activity %q has no candidates", activityID)
	}
	if k < 1 {
		k = 1
	}
	scr := localScratchPool.Get().(*localScratch)
	defer localScratchPool.Put(scr)
	if cap(scr.vecs) < len(cands) {
		scr.vecs = make([]qos.Vector, len(cands))
	}
	vecs := scr.vecs[:len(cands)]
	for i, c := range cands {
		vecs[i] = c.Vector
	}
	nz, err := qos.NewNormalizer(ps, vecs)
	if err != nil {
		return nil, fmt.Errorf("core: activity %q: %w", activityID, err)
	}

	// Scores are retained by the result; one backing array for them all.
	scoresBack := make([]float64, len(cands)*ps.Len())
	ranked := make([]RankedCandidate, len(cands))
	for i, c := range cands {
		scores := qos.Vector(scoresBack[i*ps.Len() : (i+1)*ps.Len() : (i+1)*ps.Len()])
		nz.NormalizeInto(scores, c.Vector)
		ranked[i] = RankedCandidate{
			Service: c.Service,
			Vector:  c.Vector,
			Scores:  scores,
			Utility: qos.Utility(scores, weights),
		}
	}

	// Cluster each property's score column into ranked quality clusters.
	levels := 1
	if cap(scr.ranks) < ps.Len() {
		scr.ranks = make([][]int, ps.Len())
	}
	ranks := scr.ranks[:ps.Len()] // property → per-candidate rank
	if cap(scr.ranksBack) < ps.Len()*len(cands) {
		scr.ranksBack = make([]int, ps.Len()*len(cands))
	}
	if cap(scr.values) < len(cands) {
		scr.values = make([]float64, len(cands))
	}
	values := scr.values[:len(cands)]
	for j := 0; j < ps.Len(); j++ {
		for i := range ranked {
			values[i] = ranked[i].Scores[j]
		}
		res, err := scr.cl.KMeans1D(values, k, cluster.Options{
			Seeding: seeding,
			Rand:    rng,
		})
		if err != nil {
			return nil, fmt.Errorf("core: clustering %q/%s: %w", activityID, ps.At(j).Name, err)
		}
		ranks[j] = scr.ranksBack[j*len(cands) : (j+1)*len(cands)]
		scr.cl.RanksInto(ranks[j], res, true) // scores: higher is better
		if res.K() > levels {
			levels = res.K()
		}
	}

	// Grade services: Level = best (minimum) cluster rank over the
	// properties; ClassSize = number of properties at that rank.
	for i := range ranked {
		best := ranks[0][i]
		for j := 1; j < ps.Len(); j++ {
			if ranks[j][i] < best {
				best = ranks[j][i]
			}
		}
		e := 0
		for j := 0; j < ps.Len(); j++ {
			if ranks[j][i] == best {
				e++
			}
		}
		ranked[i].Level = best
		ranked[i].ClassSize = e
	}

	rankInPlace(ranked, scr)

	return &LocalResult{ActivityID: activityID, Ranked: ranked, Levels: levels}, nil
}

// rankLess is the shortlist order: Level asc, ClassSize desc, Utility
// desc, then service ID.
func rankLess(ra, rb *RankedCandidate) bool {
	if ra.Level != rb.Level {
		return ra.Level < rb.Level
	}
	if ra.ClassSize != rb.ClassSize {
		return ra.ClassSize > rb.ClassSize
	}
	if ra.Utility != rb.Utility {
		return ra.Utility > rb.Utility
	}
	return ra.Service.ID < rb.Service.ID
}

// rankInPlace stable-sorts ranked by rankLess. It sorts a pooled index
// permutation instead of the entries — a RankedCandidate is a large,
// pointer-carrying struct that every sort swap would move with write
// barriers — and then applies the permutation in place by following its
// cycles, so each entry moves once and no second slice is allocated.
func rankInPlace(ranked []RankedCandidate, scr *localScratch) {
	n := len(ranked)
	if cap(scr.perm) < n {
		scr.perm = make([]int32, n)
	}
	perm := scr.perm[:n]
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(a, b int) bool {
		return rankLess(&ranked[perm[a]], &ranked[perm[b]])
	})
	// Position i must receive the entry at perm[i]. Walk each cycle once,
	// marking filled positions with perm[j] = j.
	for i := range perm {
		if int(perm[i]) == i {
			continue
		}
		tmp := ranked[i]
		j := i
		for {
			k := int(perm[j])
			perm[j] = int32(j)
			if k == i {
				ranked[j] = tmp
				break
			}
			ranked[j] = ranked[k]
			j = k
		}
	}
}
