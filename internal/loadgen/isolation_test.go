package loadgen

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"
	"time"
)

// TestTenantIsolation is the CI gate of the QoS layer: an abusive batch
// tenant and a well-behaved interactive tenant share one server, and the
// victim's contended p99 must stay within the fixed multiple of its
// own solo baseline while the abuser's throttle counters move. Skipped
// under -short (it runs two multi-second load phases); the test-full and
// tenant-isolation CI jobs run it.
func TestTenantIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("isolation scenario runs multi-second load phases; skipped in -short")
	}
	res, err := RunIsolation(context.Background(), 1500*time.Millisecond, 42, testMappings())
	if err != nil {
		t.Fatal(err)
	}
	evidence, _ := json.MarshalIndent(res, "", "  ")
	t.Logf("isolation result:\n%s", evidence)
	if !res.Passed {
		t.Fatalf("tenant isolation broken:\n  %v", res.Failures)
	}
	// Beyond the verdict itself, pin the shape of the evidence: both
	// phases ran real traffic and the abuser was genuinely abusive.
	if res.AbuserRun.Requests == 0 {
		t.Error("abuser issued no requests")
	}
	if res.ServerThrottled == 0 {
		t.Error("server-side throttle counter did not move")
	}
}

func TestParseTenantShares(t *testing.T) {
	cases := []struct {
		in      string
		want    []TenantShare
		wantErr bool
	}{
		{"", nil, false},
		{"a", []TenantShare{{"a", 1}}, false},
		{"a:3,b:1", []TenantShare{{"a", 3}, {"b", 1}}, false},
		{" a : 3 ", nil, true}, // inner spaces are not part of the grammar
		{"a:0", nil, true},
		{"a:-1", nil, true},
		{"a:x", nil, true},
		{"a,a", nil, true},
		{"bad name:1", nil, true},
	}
	for _, tc := range cases {
		got, err := ParseTenantShares(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseTenantShares(%q) accepted", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseTenantShares(%q): %v", tc.in, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("ParseTenantShares(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("ParseTenantShares(%q)[%d] = %v, want %v", tc.in, i, got[i], tc.want[i])
			}
		}
	}
}

// TestSeedPinsOpSequence pins the exact op sequence a worker generates for
// a fixed seed: the picker's sorted-op determinism plus the per-worker rng
// derivation are what make -seed reproduce a traffic mix bit-for-bit, and
// this golden catches anyone reordering the pick path.
func TestSeedPinsOpSequence(t *testing.T) {
	picker, err := newOpPicker(DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	// Worker 0 of a Seed=42 run: rng seeded exactly as Run seeds it.
	rng := rand.New(rand.NewSource(42 + 0*7919))
	var got []string
	for i := 0; i < 16; i++ {
		got = append(got, picker.pick(rng))
	}
	want := []string{
		"autocorrect", "lookup", "autofill", "batch-autofill", "autocorrect",
		"autofill", "lookup", "autojoin", "batch-autofill", "autofill",
		"lookup", "autofill", "batch-autocorrect", "batch-autojoin", "autojoin",
		"batch-autofill",
	}
	if len(got) != len(want) {
		t.Fatalf("sequence length %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op sequence diverged at %d: got %v, want %v", i, got, want)
		}
	}
	// Two workers of the same run must diverge (distinct derived seeds)…
	rngW1 := rand.New(rand.NewSource(42 + 1*7919))
	same := true
	for i := 0; i < 16; i++ {
		if picker.pick(rngW1) != want[i] {
			same = false
		}
	}
	if same {
		t.Error("worker 1 generated worker 0's sequence; per-worker seeds collapsed")
	}
	// …while a rerun of worker 0 must not.
	rng2 := rand.New(rand.NewSource(42))
	for i := 0; i < 16; i++ {
		if op := picker.pick(rng2); op != want[i] {
			t.Fatalf("rerun diverged at %d: %q != %q", i, op, want[i])
		}
	}
}
