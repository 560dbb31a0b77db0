package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"strconv"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/workload"
)

// mix64 is the splitmix64 finalizer: distinct inputs give well-spread,
// distinct outputs.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// subSeed derives the seed of a run's i-th iteration or round from the
// benchmark seed.
func subSeed(seed uint64, i int) uint64 { return mix64(seed ^ mix64(uint64(i)+0x5e7e)) }

// seededPrograms returns the analogues with Spec.Seed drawn from the
// benchmark seed, keeping each one's calibrated Params: the same seed gives
// the same programs, another seed other programs of the same character.
func seededPrograms(seed uint64, specs []workload.Spec) []workload.Spec {
	out := make([]workload.Spec, len(specs))
	for i, s := range specs {
		s.Seed = mix64(seed ^ mix64(uint64(i)+1))
		out[i] = s
	}
	return out
}

// seededSpec returns one named analogue with a seeded Spec.Seed.
func seededSpec(seed uint64, name string) workload.Spec {
	all := workload.All()
	for i, s := range all {
		if s.Name == name {
			return seededPrograms(seed, all)[i]
		}
	}
	panic("perfbench: unknown analogue " + name)
}

// serveInsns is the per-program budget of every serve-mix job.
const serveInsns = 1_000_000

// jobStream draws n serve-mix jobs from seed. Each job sweeps 1–2 built-in
// programs × 1–3 registered arch specs × 1–2 paper caches. The stream
// repeats earlier jobs (store hits), sends some jobs twice back to back
// (single-flight joins when the two clients pick them up together), and
// derives others from an earlier job with one spec swapped (cells shared
// with earlier jobs, so a job is part store hit, part simulation).
//
// The mix is a synthetic choice: no record of real service traffic exists.
// It is set so that store reads, store writes, single-flight joins and
// corpus hits all occur in every block; README.md reports the
// store hit and flight share rates it produces.
//
// The seed chooses contents and order; the mix is fixed, so streams of
// different seeds carry the same amount of work: every block of 20 jobs
// holds the same count of each kind, new jobs cycle through every
// (programs, specs, caches) shape, and programs, specs and caches are dealt
// from shuffled decks, so each is drawn about equally often.
func jobStream(seed uint64, n int) []serve.Job {
	rng := rand.New(rand.NewPCG(seed, 0x6e6c732d6d6978)) // "nls-mix"
	specs := arch.Names()
	sort.Strings(specs)
	caches := experiments.PaperCaches()
	cacheIdx := make([]string, len(caches))
	for i := range caches {
		cacheIdx[i] = strconv.Itoa(i)
	}
	progDeck := newDeck(rng, programNames())
	specDeck := newDeck(rng, specs)
	cacheDeck := newDeck(rng, cacheIdx)
	var shapes []string // "psc": p programs, s specs, c caches
	for p := 1; p <= 2; p++ {
		for s := 1; s <= 3; s++ {
			for c := 1; c <= 2; c++ {
				shapes = append(shapes, fmt.Sprintf("%d%d%d", p, s, c))
			}
		}
	}
	shapeDeck := newDeck(rng, shapes)

	type draw struct{ progs, specs, caches []string }
	const (
		fresh = iota
		again
		previous
		overlap
	)
	// One block: 8 new, 5 earlier, 3 back-to-back and 4 overlapping jobs.
	block := []int{fresh, fresh, fresh, fresh, fresh, fresh, fresh, fresh,
		again, again, again, again, again, previous, previous, previous,
		overlap, overlap, overlap, overlap}
	var kinds []int
	draws := make([]draw, 0, n)
	for len(draws) < n {
		if len(kinds) == 0 {
			kinds = append([]int(nil), block...)
			rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		}
		kind := kinds[0]
		kinds = kinds[1:]
		if len(draws) == 0 {
			kind = fresh
		}
		var d draw
		switch kind {
		case fresh:
			sh := shapeDeck.next()
			d = draw{progs: progDeck.distinct(int(sh[0] - '0')), specs: specDeck.distinct(int(sh[1] - '0')),
				caches: cacheDeck.distinct(int(sh[2] - '0'))}
		case again:
			d = draws[rng.IntN(len(draws))]
		case previous:
			d = draws[len(draws)-1]
		case overlap:
			base := draws[rng.IntN(len(draws))]
			d = draw{progs: base.progs, specs: append([]string(nil), base.specs...), caches: base.caches}
			d.specs[rng.IntN(len(d.specs))] = specDeck.next()
			d.specs = dedupe(d.specs)
		}
		draws = append(draws, d)
	}

	jobs := make([]serve.Job, n)
	for i, d := range draws {
		geos := make([]cache.Geometry, len(d.caches))
		for j, c := range d.caches {
			k, _ := strconv.Atoi(c)
			geos[j] = caches[k]
		}
		arms := make([]experiments.Arm, len(d.specs))
		for j, name := range d.specs {
			s, _ := arch.Lookup(name)
			arms[j] = experiments.Arm{Name: name, Spec: s, Caches: geos}
		}
		jobs[i] = serve.Job{Schema: serve.JobSchema, Insns: serveInsns,
			Programs: d.progs, Grid: experiments.Grid{Name: "mix", Arms: arms}}
	}
	return jobs
}

// deck deals items from a pool in shuffled rounds, so over a stream every
// item is dealt about equally often.
type deck struct {
	rng  *rand.Rand
	pool []string
	left []string
}

func newDeck(rng *rand.Rand, pool []string) *deck { return &deck{rng: rng, pool: pool} }

func (d *deck) next() string {
	if len(d.left) == 0 {
		d.left = append([]string(nil), d.pool...)
		d.rng.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	x := d.left[0]
	d.left = d.left[1:]
	return x
}

// distinct deals k different items, sorted (item order does not change
// what a job simulates, only its labels).
func (d *deck) distinct(k int) []string {
	var out []string
	for len(out) < k {
		x := d.next()
		if !slices.Contains(out, x) {
			out = append(out, x)
		}
	}
	sort.Strings(out)
	return out
}

// programNames lists the built-in analogues' names.
func programNames() []string {
	var out []string
	for _, s := range workload.All() {
		out = append(out, s.Name)
	}
	return out
}

// dedupe removes repeated names, keeping first occurrences in order.
func dedupe(xs []string) []string {
	seen := make(map[string]bool, len(xs))
	out := xs[:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
