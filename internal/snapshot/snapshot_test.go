package snapshot

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mapsynth/internal/corpusgen"
	"mapsynth/internal/mapping"
	"mapsynth/internal/pipeline"
	"mapsynth/internal/table"
)

// smallMappings synthesizes a compact but real result: a sampled web corpus
// through the full pipeline, so the snapshot exercises genuine surface
// forms, support counts and provenance.
func smallMappings(t testing.TB) []*mapping.Mapping {
	t.Helper()
	corpus := corpusgen.GenerateWeb(corpusgen.Options{Seed: 7, SampleFraction: 0.2})
	res, err := pipeline.New(pipeline.DefaultConfig()).Run(context.Background(), corpus.Tables)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mappings) == 0 {
		t.Fatal("pipeline produced no mappings")
	}
	if len(res.Mappings) > 25 {
		res.Mappings = res.Mappings[:25]
	}
	return res.Mappings
}

// The v1 writer is gone; testdata/states.v1.snap is the last file it wrote,
// so every v1 test reads real legacy bytes. Generated at commit 54fe5c4
// (the parent of the writer's removal) with this package's then-exported
// v1 writer,
//
//	WriteFile("internal/snapshot/testdata/states.v1.snap", maps)
//
// where maps is fixtureMappings() below — the same twelve mappings
// internal/serve's testMappings() builds.
const v1FixturePath = "testdata/states.v1.snap"

func v1Fixture(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(v1FixturePath)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fixtureMappings rebuilds the mapping set the fixture was written from.
func fixtureMappings() []*mapping.Mapping {
	states := []string{"California", "Washington", "Oregon", "Texas", "Nevada", "Utah"}
	abbrs := []string{"CA", "WA", "OR", "TX", "NV", "UT"}
	var stateTables []*table.BinaryTable
	for i := 0; i < 4; i++ {
		stateTables = append(stateTables, table.NewBinaryTable(
			i, i, fmt.Sprintf("dom%d.example", i), "state", "abbr", states, abbrs))
	}
	cities := []string{"San Francisco", "Seattle", "Portland", "Houston", "Las Vegas"}
	cityStates := []string{"California", "Washington", "Oregon", "Texas", "Nevada"}
	cityTables := []*table.BinaryTable{
		table.NewBinaryTable(10, 10, "cities.example", "city", "state", cities, cityStates),
		table.NewBinaryTable(11, 11, "atlas.example", "city", "state", cities, cityStates),
	}
	maps := []*mapping.Mapping{
		mapping.Build(0, stateTables),
		mapping.Build(1, cityTables),
	}
	for i := 2; i < 12; i++ {
		ls := make([]string, 8)
		rs := make([]string, 8)
		for j := range ls {
			ls[j] = fmt.Sprintf("key-%d-%d", i, j)
			rs[j] = fmt.Sprintf("val-%d-%d", i, j)
		}
		bt := table.NewBinaryTable(100+i, 100+i, fmt.Sprintf("filler%d.example", i), "l", "r", ls, rs)
		maps = append(maps, mapping.Build(i, []*table.BinaryTable{bt}))
	}
	return maps
}

// sameMappings asserts got carries exactly want's content and answers every
// left value identically.
func sameMappings(t *testing.T, got, want []*mapping.Mapping) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("mapping count = %d, want %d", len(got), len(want))
	}
	for i, want := range want {
		g := got[i]
		if g.ID != want.ID {
			t.Errorf("mapping %d: ID = %d, want %d", i, g.ID, want.ID)
		}
		if !reflect.DeepEqual(g.Pairs, want.Pairs) {
			t.Errorf("mapping %d: pairs differ", i)
		}
		if !reflect.DeepEqual(g.PairSupports(), want.PairSupports()) {
			t.Errorf("mapping %d: support differs", i)
		}
		if !reflect.DeepEqual(g.TableIDs, want.TableIDs) {
			t.Errorf("mapping %d: table ids differ: %v vs %v", i, g.TableIDs, want.TableIDs)
		}
		if !reflect.DeepEqual(g.Domains, want.Domains) {
			t.Errorf("mapping %d: domains differ", i)
		}
		if !reflect.DeepEqual(g.CandidateIDs, want.CandidateIDs) {
			t.Errorf("mapping %d: candidate ids differ", i)
		}
		if !reflect.DeepEqual(g.SurfaceRights(), want.SurfaceRights()) {
			t.Errorf("mapping %d: surface rights differ", i)
		}
		// Behavioral equality: every left value answers identically.
		for _, p := range want.Pairs {
			wv, wok := want.Lookup(p.L)
			gv, gok := g.Lookup(p.L)
			if wok != gok || wv != gv {
				t.Errorf("mapping %d: Lookup(%q) = (%q,%v), want (%q,%v)", i, p.L, gv, gok, wv, wok)
			}
			if wa, ga := want.LookupAll(p.L), g.LookupAll(p.L); !reflect.DeepEqual(wa, ga) {
				t.Errorf("mapping %d: LookupAll(%q) = %v, want %v", i, p.L, ga, wa)
			}
		}
	}
}

// TestRoundTrip: the legacy v1 file decodes to exactly the mappings it was
// written from, and those mappings survive the v2 codec the same way.
func TestRoundTrip(t *testing.T) {
	want := fixtureMappings()
	got, err := Decode(v1Fixture(t))
	if err != nil {
		t.Fatalf("Decode(v1 fixture): %v", err)
	}
	sameMappings(t, got, want)

	path := filepath.Join(t.TempDir(), "out.snap")
	if err := WriteFileV2(path, want); err != nil {
		t.Fatalf("WriteFileV2: %v", err)
	}
	got, err = ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	sameMappings(t, got, want)
}

// TestLoadTranscodesV1: Load and LoadBytes turn the legacy file into the
// same verified v2 image a fresh WriteV2 of its mappings produces — v1 is a
// storage format only, never a serving representation.
func TestLoadTranscodesV1(t *testing.T) {
	var want bytes.Buffer
	if err := WriteV2(&want, fixtureMappings()); err != nil {
		t.Fatal(err)
	}
	fromPath, err := Load(v1FixturePath)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	fromBytes, err := LoadBytes(v1Fixture(t))
	if err != nil {
		t.Fatalf("LoadBytes: %v", err)
	}
	for name, ld := range map[string]Loaded{"Load": fromPath, "LoadBytes": fromBytes} {
		if ld.Format != 1 || ld.Handle == nil {
			t.Fatalf("%s: format=%d handle=%v, want a handle over a v1 file", name, ld.Format, ld.Handle)
		}
		if err := ld.Handle.Verify(); err != nil {
			t.Errorf("%s: transcoded image fails Verify: %v", name, err)
		}
		if !bytes.Equal(ld.Handle.Bytes(), want.Bytes()) {
			t.Errorf("%s: transcoded image differs from WriteV2 of the same mappings", name)
		}
	}
	// A v2 file takes the mmap route and reports what was on disk.
	path := filepath.Join(t.TempDir(), "c2.snap")
	if err := os.WriteFile(path, want.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	ld, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Handle.Close()
	if ld.Format != 2 || ld.Handle.Path() != path || !bytes.Equal(ld.Handle.Bytes(), want.Bytes()) {
		t.Fatalf("Load(v2): format=%d path=%q", ld.Format, ld.Handle.Path())
	}
}

func TestDecodeErrors(t *testing.T) {
	good := v1Fixture(t)

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 3, 8, len(good) / 2, len(good) - 1} {
			if _, err := Decode(good[:n]); err == nil {
				t.Errorf("Decode of %d/%d bytes succeeded", n, len(good))
			}
			if _, err := LoadBytes(good[:n]); err == nil {
				t.Errorf("LoadBytes of %d/%d bytes succeeded", n, len(good))
			}
		}
	})
	t.Run("corrupted", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(bad)/2] ^= 0xff
		if _, err := Decode(bad); !errors.Is(err, ErrChecksum) {
			t.Errorf("corrupted payload: err = %v, want ErrChecksum", err)
		}
	})
	t.Run("badmagic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 'X'
		if _, err := Decode(bad); !errors.Is(err, ErrMagic) {
			t.Errorf("bad magic: err = %v, want ErrMagic", err)
		}
	})
	t.Run("badversion", func(t *testing.T) {
		// 3 is the retired delta format's version byte: rejected like any
		// other unknown version, by Decode and by the upload path alike.
		for _, v := range []byte{3, 99} {
			bad := append([]byte(nil), good...)
			bad[4] = v
			// Re-stamp the checksum so only the version is wrong.
			reseal(bad)
			if _, err := Decode(bad); !errors.Is(err, ErrVersion) {
				t.Errorf("version %d: Decode err = %v, want ErrVersion", v, err)
			}
			if _, err := LoadBytes(bad); !errors.Is(err, ErrVersion) {
				t.Errorf("version %d: LoadBytes err = %v, want ErrVersion", v, err)
			}
		}
	})
}

// FuzzDecodeV1: Decode still parses bytes that arrive over HTTP (a v1
// upload). The footer is re-sealed inside the fuzz body
// so mutations get past the checksum and reach the varint body decoder,
// which must fail cleanly — never panic or over-allocate.
func FuzzDecodeV1(f *testing.F) {
	good := v1Fixture(f)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte("MSNP\x01\xff\xff\xff\xff\x0f"))
	flip := append([]byte(nil), good...)
	flip[len(flip)/3] ^= 0x40
	f.Add(flip)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < len(Magic)+1+4 {
			return
		}
		data = append([]byte(nil), data...)
		reseal(data)
		maps, err := Decode(data)
		if err != nil {
			return
		}
		// Whatever decodes is then transcoded to serve; that may fail (an
		// id past int32) but, like Decode, must not panic.
		_, _ = FromMappings(maps)
	})
}

// reseal recomputes the trailing checksum after a deliberate payload edit.
func reseal(b []byte) {
	sum := crc32.ChecksumIEEE(b[:len(b)-4])
	b[len(b)-4] = byte(sum)
	b[len(b)-3] = byte(sum >> 8)
	b[len(b)-2] = byte(sum >> 16)
	b[len(b)-1] = byte(sum >> 24)
}
