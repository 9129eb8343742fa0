package main

import (
	"reflect"
	"sort"
	"testing"

	"asyncio/internal/campaign"
)

func counter(start int64) func() int64 {
	return func() int64 { start++; return start }
}

// multiset is what a script asks for, order and unique ids aside.
func multiset(reqs []svcRequest) []string {
	var out []string
	for _, r := range reqs {
		spec, err := campaign.DecodeSpec([]byte(r.Spec))
		if err != nil {
			panic(err)
		}
		out = append(out, r.Class+" "+r.Format+" "+spec.Kind+" "+spec.Sweep+spec.Workload+spec.System+spec.Mode)
	}
	sort.Strings(out)
	return out
}

// Equal seeds give equal scripts, different seeds different ones — but
// only in order and in the never-seen ids: the work asked for is the same
// for every seed, so seeds do not spread the measurements.
func TestScriptsAreSeededAndSeedInvariantInWork(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		for _, def := range workloadDefs {
			if !def.Sim {
				continue
			}
			tables := simTables(def.Name)
			a, _ := simScript(tables, 1)
			b, _ := simScript(tables, 1)
			c, _ := simScript(tables, 2)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s: seed 1 twice gives different scripts", def.Name)
			}
			if def.Name != wScaleWide && reflect.DeepEqual(a, c) {
				t.Errorf("%s: seeds 1 and 2 give the same order", def.Name)
			}
			seen := make(map[simOp]bool)
			for _, op := range c {
				seen[op] = true
			}
			if len(seen) != len(a) || len(c) != len(a) {
				t.Errorf("%s: seed 2 runs %d distinct points of %d", def.Name, len(seen), len(a))
			}
		}
	})
	t.Run("cold", func(t *testing.T) {
		a := coldScript(1, 0, counter(0))
		b := coldScript(1, 0, counter(0))
		c := coldScript(2, 0, counter(0))
		next := coldScript(1, 1, counter(int64(len(a))))
		if want := 2*len(runCombos())*len(coldFormats) + len(coldSweeps); len(a) != want {
			t.Fatalf("a repetition has %d requests, want %d", len(a), want)
		}
		if !reflect.DeepEqual(a, b) {
			t.Error("seed 1 twice gives different scripts")
		}
		if reflect.DeepEqual(a, c) {
			t.Error("seeds 1 and 2 give the same script")
		}
		if !reflect.DeepEqual(multiset(a), multiset(c)) || !reflect.DeepEqual(multiset(a), multiset(next)) {
			t.Error("the work of a repetition depends on the seed or the repetition")
		}
		// Never-seen means never: no content twice within a repetition or
		// across the repetitions of a process.
		seen := make(map[string]bool)
		for _, reqs := range [][]svcRequest{a, next} {
			for _, r := range reqs {
				spec, err := campaign.DecodeSpec([]byte(r.Spec))
				if err != nil {
					t.Fatalf("%s: %v", r.Spec, err)
				}
				if seen[spec.ContentHash()] {
					t.Fatalf("content of %s is asked for twice", r.Spec)
				}
				seen[spec.ContentHash()] = true
			}
		}
		tenants := make(map[string]int)
		for _, r := range a {
			spec, _ := campaign.DecodeSpec([]byte(r.Spec))
			tenants[spec.Tenant]++
		}
		if len(tenants) != 2 || tenants[tenantA] != tenants[tenantB] {
			t.Errorf("tenants = %v, want two with equal shares", tenants)
		}
	})
	t.Run("warm", func(t *testing.T) {
		p1, p2 := newWarmPool(), newWarmPool()
		a, b, c := warmScript(p1, 1), warmScript(p1, 1), warmScript(p2, 2)
		if len(a) != warmDedupe+warmLRU+warmArtifact {
			t.Fatalf("script has %d requests", len(a))
		}
		if !reflect.DeepEqual(a, b) {
			t.Error("seed 1 twice gives different scripts")
		}
		if reflect.DeepEqual(a, c) {
			t.Error("seeds 1 and 2 give the same script")
		}
		if !reflect.DeepEqual(multiset(a), multiset(c)) {
			t.Error("the work of a repetition depends on the seed")
		}
		// The pool holds more point keys than the LRU has entries.
		keys := 0
		for _, r := range p1.all("") {
			spec, err := campaign.DecodeSpec([]byte(r.Spec))
			if err != nil {
				t.Fatal(err)
			}
			n, _ := spec.PointCount()
			keys += n
		}
		if keys <= warmCacheSize {
			t.Errorf("pool has %d point keys, LRU %d: nothing would reach the store", keys, warmCacheSize)
		}
		// An lru request is known content under a tenant of its own.
		for _, r := range a {
			if r.Class != classLRU {
				continue
			}
			spec, _ := campaign.DecodeSpec([]byte(r.Spec))
			if spec.Tenant == tenantA {
				t.Fatalf("lru request %s keeps the pool's tenant", r.Spec)
			}
		}
	})
}
