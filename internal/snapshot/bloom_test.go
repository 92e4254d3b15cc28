package snapshot

import (
	"fmt"
	"testing"
)

func TestBloomBasics(t *testing.T) {
	b := newBloom(100, 0.01)
	keys := []string{"alpha", "beta", "gamma", "delta"}
	for _, k := range keys {
		b.add(k)
	}
	for _, k := range keys {
		if !b.mayContain(k) {
			t.Errorf("false negative for %q", k)
		}
	}
	if b.n != len(keys) {
		t.Errorf("added = %d, want %d", b.n, len(keys))
	}
}

func TestBloomFalsePositiveRate(t *testing.T) {
	b := newBloom(1000, 0.01)
	for i := 0; i < 1000; i++ {
		b.add(fmt.Sprintf("member-%d", i))
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if b.mayContain(fmt.Sprintf("absent-%d", i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.03 {
		t.Errorf("false positive rate %.4f exceeds 3x target", rate)
	}
}

func TestBloomNeverFalseNegative(t *testing.T) {
	b := newBloom(10, 0.001) // deliberately undersized relative to inserts
	for i := 0; i < 500; i++ {
		b.add(fmt.Sprintf("k%d", i))
	}
	for i := 0; i < 500; i++ {
		if !b.mayContain(fmt.Sprintf("k%d", i)) {
			t.Fatalf("false negative at %d", i)
		}
	}
}

func TestBloomDegenerateParams(t *testing.T) {
	b := newBloom(0, 5.0) // clamped
	b.add("x")
	if !b.mayContain("x") {
		t.Error("clamped filter must still work")
	}
	if b.m < 64 {
		t.Errorf("m = %d bits, want >= 64", b.m)
	}
}
