package snapshot

import (
	"bytes"
	"errors"
	"testing"
)

// deltaFixtures returns a base and a target snapshot (both v2) sharing most
// mappings: the target drops one mapping and keeps the rest byte-identical.
func deltaFixtures(t testing.TB) (baseData, targetData []byte) {
	t.Helper()
	maps := smallMappings(t)
	if len(maps) < 3 {
		t.Fatal("need at least 3 mappings for delta fixtures")
	}
	var base, target bytes.Buffer
	if err := WriteV2(&base, maps); err != nil {
		t.Fatal(err)
	}
	if err := WriteV2(&target, maps[:len(maps)-1]); err != nil {
		t.Fatal(err)
	}
	return base.Bytes(), target.Bytes()
}

func TestDeltaRoundTrip(t *testing.T) {
	baseData, targetData := deltaFixtures(t)
	db, err := BuildDelta(baseData, targetData, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !IsDelta(db) {
		t.Fatal("BuildDelta output does not sniff as a delta")
	}
	if IsDelta(baseData) {
		t.Fatal("a full v2 snapshot sniffs as a delta")
	}
	if len(db) >= len(targetData) {
		t.Fatalf("delta (%d bytes) is not smaller than the full target (%d bytes)", len(db), len(targetData))
	}
	d, err := OpenDelta(db)
	if err != nil {
		t.Fatal(err)
	}
	if d.BaseVersion != 3 || d.TargetVersion != 4 {
		t.Fatalf("versions = %d → %d, want 3 → 4", d.BaseVersion, d.TargetVersion)
	}
	if d.TargetCount() == 0 || d.Copies() == 0 {
		t.Fatalf("expected shared mappings to become copies: %d copies / %d total", d.Copies(), d.TargetCount())
	}
	got, err := d.Apply(baseData)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, targetData) {
		t.Fatalf("Apply output differs from the original target (%d vs %d bytes)", len(got), len(targetData))
	}
	// A delta is not a loadable snapshot.
	if _, err := Decode(db); !errors.Is(err, ErrVersion) {
		t.Fatalf("Decode(delta) = %v, want ErrVersion", err)
	}
	if _, err := LoadBytes(db); !errors.Is(err, ErrVersion) {
		t.Fatalf("LoadBytes(delta) = %v, want ErrVersion", err)
	}
}

func TestDeltaIdentity(t *testing.T) {
	baseData, _ := deltaFixtures(t)
	db, err := BuildDelta(baseData, baseData, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenDelta(db)
	if err != nil {
		t.Fatal(err)
	}
	if d.Literals != 0 {
		t.Fatalf("identity delta carries %d literals, want 0", d.Literals)
	}
	if d.ChangedSections != 0 {
		t.Fatalf("identity delta reports changed sections %09b", d.ChangedSections)
	}
	got, err := d.Apply(baseData)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, baseData) {
		t.Fatal("identity delta does not reproduce the base")
	}
}

func TestDeltaFromV1Base(t *testing.T) {
	// A receiver holding a legacy v1 file can still apply a delta: the
	// output is the canonical v2 encoding regardless of base format.
	maps := fixtureMappings()
	v1Base := v1Fixture(t)
	var v2Target bytes.Buffer
	if err := WriteV2(&v2Target, maps[:len(maps)-1]); err != nil {
		t.Fatal(err)
	}
	db, err := BuildDelta(v1Base, v2Target.Bytes(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenDelta(db)
	if err != nil {
		t.Fatal(err)
	}
	if d.Literals != 0 {
		t.Fatalf("dropping one mapping needed %d literals", d.Literals)
	}
	got, err := d.Apply(v1Base)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2Target.Bytes()) {
		t.Fatal("Apply from a v1 base does not reproduce the v2 target")
	}
}

func TestDeltaWrongBase(t *testing.T) {
	baseData, targetData := deltaFixtures(t)
	db, err := BuildDelta(baseData, targetData, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenDelta(db)
	if err != nil {
		t.Fatal(err)
	}
	// Applying against the target (not the base) must fail the base CRC
	// check, not silently produce garbage.
	if _, err := d.Apply(targetData); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("Apply(wrong base) = %v, want ErrDeltaBase", err)
	}
	// Bit rot in the base is caught by its own whole-file CRC.
	rotted := append([]byte(nil), baseData...)
	rotted[len(rotted)/2] ^= 0x01
	if _, err := d.Apply(rotted); err == nil {
		t.Fatal("Apply(rotted base) succeeded")
	}
}

func TestDeltaCorruption(t *testing.T) {
	baseData, targetData := deltaFixtures(t)
	good, err := BuildDelta(baseData, targetData, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(d []byte) []byte
		want   error
	}{
		{"truncated tiny", func(d []byte) []byte { return d[:8] }, ErrTruncated},
		{"bad magic", func(d []byte) []byte { d[0] = 'X'; return d }, ErrMagic},
		{"v2 version byte", func(d []byte) []byte { d[4] = Version2; return d }, ErrVersion},
		{"footer rot", func(d []byte) []byte { d[len(d)-1] ^= 0xff; return d }, ErrChecksum},
		{"payload rot", func(d []byte) []byte { d[len(d)/2] ^= 0xff; return d }, ErrChecksum},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), good...))
			if _, err := OpenDelta(data); !errors.Is(err, tc.want) {
				t.Fatalf("OpenDelta = %v, want %v", err, tc.want)
			}
		})
	}
}

func FuzzOpenDelta(f *testing.F) {
	baseData, targetData := deltaFixtures(f)
	good, err := BuildDelta(baseData, targetData, 1, 2)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good, baseData)
	f.Add(good[:len(good)/2], baseData)
	f.Add([]byte("MSNP\x03garbage"), baseData)
	flip := append([]byte(nil), good...)
	flip[len(flip)/3] ^= 0x40
	f.Add(flip, baseData)
	f.Fuzz(func(t *testing.T, data, base []byte) {
		d, err := OpenDelta(data)
		if err != nil {
			return
		}
		// An open delta must apply cleanly or fail with an error — never
		// panic or over-read, whatever the base bytes are.
		if out, err := d.Apply(base); err == nil {
			if _, err := OpenBytes(out); err != nil {
				t.Fatalf("Apply succeeded but produced an unopenable snapshot: %v", err)
			}
		}
		_ = d.TargetCount()
		_ = d.Copies()
	})
}
