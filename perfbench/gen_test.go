package main

import (
	"reflect"
	"testing"
)

// TestOpListSeeded checks that the workload seed alone determines the op
// list: the same seed yields an identical list, another seed a different
// one, and every block keeps the designed mix.
func TestOpListSeeded(t *testing.T) {
	for name, n := range map[string]int{"campaign": 48, "masking": 16, "served": 64} {
		t.Run(name, func(t *testing.T) {
			take := func(seed uint64) []op {
				g, err := newOpGen(name, seed)
				if err != nil {
					t.Fatal(err)
				}
				return g.take(n)
			}
			a, b, c := take(7), take(7), take(8)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("the same seed produced two different op lists")
			}
			if reflect.DeepEqual(a, c) {
				t.Fatal("seeds 7 and 8 produced the same op list")
			}
			kinds := map[opKind]int{}
			apps := map[string]int{}
			for i, o := range a {
				if o.Index != i {
					t.Fatalf("op %d has index %d", i, o.Index)
				}
				kinds[o.Kind]++
				if o.Kind != kindServedInline {
					apps[o.App]++
				} else if o.Module == "" || len(o.Outputs) == 0 {
					t.Fatalf("inline op %d carries no module", i)
				}
			}
			if len(apps) != len(mix) {
				t.Fatalf("op list covers %d of %d applications", len(apps), len(mix))
			}
			if name == "served" {
				want := map[opKind]int{kindServedDefault: n / 2, kindServedKnobs: n / 4, kindServedInline: n / 4}
				if !reflect.DeepEqual(kinds, want) {
					t.Fatalf("served mix %v, want %v", kinds, want)
				}
			}
		})
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	if _, err := newOpGen("fig8", 1); err == nil {
		t.Fatal("newOpGen accepted an unknown workload")
	}
}
