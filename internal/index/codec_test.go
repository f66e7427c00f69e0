package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"fpinterop/internal/minutiae"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
)

// TestSegmentEqualsBuild encodes an index that holds delta templates
// and tombstoned base templates, so the segment is a merge built aside,
// and requires the decoded index to vote exactly as Build over the
// surviving templates (given in another order) and as the index it came
// from, which the encoding must leave as it was. The decoded index then
// takes the same removals and adds as the built one and still agrees.
func TestSegmentEqualsBuild(t *testing.T) { segmentEqualsBuild(t) }

// TestSegmentEqualsBuildMultiBlock runs the same history over bases cut
// into blocks of 8 templates.
func TestSegmentEqualsBuildMultiBlock(t *testing.T) {
	setBlockShift(t, multiBlockShift)
	bt := segmentEqualsBuild(t)
	if bt.blocks < 3 || bt.tombstoned < 2 {
		t.Fatalf("encoded base spans %d blocks with tombstones in %d; want 3+ and 2+", bt.blocks, bt.tombstoned)
	}
}

func segmentEqualsBuild(t *testing.T) (bt blockTrace) {
	cohort := population.NewCohort(rng.New(35), population.CohortOptions{Size: 60})
	tpls := captureGallery(t, cohort, "D0")
	probes := append(captureSample(t, cohort, "D0", 1)[:4], captureSample(t, cohort, "D1", 1)[4:8]...)
	ids := make([]string, len(tpls))
	for i := range ids {
		ids[i] = subjectID(i)
	}
	// Few enough adds and removals after the build that no merge runs:
	// their postings stay under mergeFloor.
	const built, added = 50, 4
	primary, err := Build(Options{}, ids[:built], keysFrom(tpls))
	if err != nil {
		t.Fatal(err)
	}
	for i := built; i < built+added; i++ {
		if err := primary.Add(ids[i], tpls[i]); err != nil {
			t.Fatal(err)
		}
	}
	live := map[int]bool{}
	for i := range built + added {
		live[i] = true
	}
	for _, i := range []int{11, 30, 52} {
		if err := primary.Remove(ids[i]); err != nil {
			t.Fatal(err)
		}
		delete(live, i)
	}
	base := primary.base
	if len(primary.delta.ids) == 0 || base.removed == 0 {
		t.Fatalf("primary holds %d delta templates and %d tombstones; the history must leave both", len(primary.delta.ids), base.removed)
	}
	bt.observe(primary, base)
	before := primary.Stats()

	seg := primary.AppendSegment(nil)
	if primary.base != base || len(primary.delta.ids) == 0 || primary.Stats() != before {
		t.Fatal("AppendSegment changed the index it encoded")
	}
	// The survivors, newest first: another order than the primary's.
	var order []int
	for i := built + added - 1; i >= 0; i-- {
		if live[i] {
			order = append(order, i)
		}
	}
	liveIDs := make([]string, len(order))
	for j, i := range order {
		liveIDs[j] = ids[i]
	}
	decoded, err := DecodeSegment(Options{Fanout: 16}, seg, liveIDs)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Options().Fanout != 16 {
		t.Fatalf("decoded index runs with %+v, want the options it was given", decoded.Options())
	}
	bt.observe(decoded, decoded.base)
	rebuilt, err := Build(Options{Fanout: 16}, liveIDs, func(dst []uint64, j int) []uint64 { return AppendKeys(dst, tpls[order[j]]) })
	if err != nil {
		t.Fatal(err)
	}
	if again := decoded.AppendSegment(nil); !bytes.Equal(again, seg) {
		t.Fatal("a decoded segment encodes to other bytes")
	}
	requireSame := func(when string) {
		t.Helper()
		if got, want := decoded.Stats(), rebuilt.Stats(); got != want {
			t.Fatalf("%s: Stats = %+v, Build %+v", when, got, want)
		}
		for pi, probe := range probes {
			for _, fanout := range []int{0, 5} {
				if got, want := decoded.Candidates(probe, fanout), rebuilt.Candidates(probe, fanout); !sameShortlist(got, want) {
					t.Fatalf("%s: probe %d fanout %d:\n got %+v\nwant %+v", when, pi, fanout, got, want)
				}
			}
		}
	}
	requireSame("decoded")
	for pi, probe := range probes {
		if got, want := decoded.Candidates(probe, 0), primary.Candidates(probe, 16); !sameShortlist(got, want) {
			t.Fatalf("probe %d: decoded %+v, primary %+v", pi, got, want)
		}
	}
	// The members came over the wire: removal by keys must find them.
	for _, i := range []int{0, 41, 53} {
		keys := AppendKeys(nil, tpls[i])
		for _, ix := range []*Index{decoded, rebuilt} {
			if err := ix.RemoveKeys(ids[i], keys); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, i := range []int{11, 58} {
		for _, ix := range []*Index{decoded, rebuilt} {
			if err := ix.Add(ids[i], tpls[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	requireSame("after removals and adds")
	return bt
}

// segmentFixture is four hand-made templates, and the history the
// segment pin encodes: three built, one added to the delta and one base
// template removed. The templates share their first ten minutiae, each
// moved by a few pixels, so some keys are held by several of them.
func segmentFixture(t testing.TB) *Index {
	t.Helper()
	tpls := make([]*minutiae.Template, 4)
	for i := range tpls {
		tpl := &minutiae.Template{Width: 400, Height: 500, DPI: 500}
		for j := 0; j < 14+i; j++ {
			shared := j < 10
			x, y := 30+(53*j+17*i)%340, 30+(97*j+29*i)%440
			if shared {
				x, y = 30+(53*j)%340+3*i, 30+(97*j)%440+2*i
			}
			tpl.Minutiae = append(tpl.Minutiae, minutiae.Minutia{
				X: float64(x), Y: float64(y),
				Angle: float64((7*j+i)%16)*math.Pi/8 + 0.1,
				Kind:  minutiae.Ending + minutiae.Type(j%2), Quality: uint8(60 + j),
			})
		}
		tpls[i] = tpl
	}
	names := []string{"alice", "bob", "carol", "dave"}
	ix, err := Build(Options{}, names[:3], keysFrom(tpls))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(names[3], tpls[3]); err != nil {
		t.Fatal(err)
	}
	if err := ix.Remove("bob"); err != nil {
		t.Fatal(err)
	}
	return ix
}

const segmentPin = "testdata/segment.golden"

// TestFormatPinSegment pins the segment encoding of segmentFixture byte
// for byte; FPINTEROP_UPDATE_PINS=1 rewrites the golden file instead.
// The pin decodes to the fixture's index and encodes back to itself.
func TestFormatPinSegment(t *testing.T) {
	ix := segmentFixture(t)
	got := ix.AppendSegment(nil)
	if os.Getenv("FPINTEROP_UPDATE_PINS") != "" {
		if err := os.MkdirAll(filepath.Dir(segmentPin), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segmentPin, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(segmentPin)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment: %d bytes encoded, golden has %d and differs", len(got), len(want))
	}
	decoded, err := DecodeSegment(Options{}, want, []string{"dave", "carol", "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := decoded.Stats(), ix.Stats(); got != want || want.Postings == 0 {
		t.Fatalf("pin decodes to %+v, fixture %+v", got, want)
	}
	if again := decoded.AppendSegment(nil); !bytes.Equal(again, want) {
		t.Fatal("the decoded pin encodes to other bytes")
	}
}

// resealed is data with its trailing CRC recomputed, so a change to the
// body reaches the structural checks behind the checksum.
func resealed(data []byte) []byte {
	out := bytes.Clone(data)
	if len(out) >= 4 {
		body := out[:len(out)-4]
		binary.BigEndian.PutUint32(out[len(body):], crc32.ChecksumIEEE(body))
	}
	return out
}

// TestDecodeSegmentRejects corrupts the pin one field at a time, with
// the checksum resealed where the field is behind it, and requires
// ErrBadSegment for each; a segment of other templates than expected is
// ErrSegmentIDs.
func TestDecodeSegmentRejects(t *testing.T) {
	pin, err := os.ReadFile(segmentPin)
	if err != nil {
		t.Fatal(err)
	}
	k := int(binary.BigEndian.Uint32(pin[11:]))
	n := int(binary.BigEndian.Uint32(pin[7:]))
	keysAt := segHeaderSize
	blockAt := keysAt + segKeySize*k
	rc := int(binary.BigEndian.Uint32(pin[blockAt:]))
	refsAt := blockAt + 4
	offsAt := refsAt + 2*rc
	idsAt := offsAt + 4*k
	membersAt := len(pin) - 4 - 8*n
	// shared is where the refs of sharedSlot's bucket, which lists two
	// templates or more, begin.
	shared, sharedSlot := -1, 0
	for s, lo := 0, 0; s < k && shared < 0; s++ {
		hi := int(binary.BigEndian.Uint32(pin[offsAt+4*s:]))
		if hi-lo >= 2 {
			shared, sharedSlot = refsAt+2*lo, s
		}
		lo = hi
	}
	if k < 2 || n != 3 || shared < 0 || string(pin[idsAt+4:idsAt+9]) != "alice" || string(pin[idsAt+13:idsAt+18]) != "carol" {
		t.Fatalf("pin holds %d keys and %d templates, shared bucket at %d; the cases below need 2+, 3 and one", k, n, shared)
	}
	u32 := func(at int, v uint32) func([]byte) []byte {
		return func(b []byte) []byte { binary.BigEndian.PutUint32(b[at:], v); return b }
	}
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
		keep   bool // leave the checksum as it was
	}{
		{name: "checksum", keep: true, mutate: func(b []byte) []byte { b[refsAt] ^= 1; return b }},
		{name: "truncated", keep: true, mutate: func(b []byte) []byte { return b[:len(b)-5] }},
		{name: "empty", keep: true, mutate: func([]byte) []byte { return nil }},
		{name: "magic", mutate: func(b []byte) []byte { b[0] = 'X'; return b }},
		{name: "version", mutate: func(b []byte) []byte { b[5] = 2; return b }},
		{name: "shift", mutate: func(b []byte) []byte { b[6]++; return b }},
		{name: "template count", mutate: u32(7, 1<<30)},
		{name: "duplicate key", mutate: func(b []byte) []byte {
			copy(b[keysAt+segKeySize:keysAt+segKeySize+8], b[keysAt:keysAt+8])
			return b
		}},
		{name: "key out of range", mutate: func(b []byte) []byte {
			binary.BigEndian.PutUint64(b[keysAt:], keyLimit)
			return b
		}},
		{name: "live count", mutate: u32(keysAt+8, binary.BigEndian.Uint32(pin[keysAt+8:])+1)},
		{name: "zero live count", mutate: u32(keysAt+8, 0)},
		{name: "offset past refs", mutate: u32(offsAt, uint32(rc+1))},
		{name: "offsets not monotone", mutate: func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[offsAt:], binary.BigEndian.Uint32(b[offsAt+4:])+1)
			return b
		}},
		{name: "ref past block", mutate: func(b []byte) []byte {
			binary.BigEndian.PutUint16(b[refsAt:], uint16(n))
			return b
		}},
		{name: "ref twice in a bucket", mutate: func(b []byte) []byte {
			// The bucket's second template gives its posting to the
			// first, and both members say so: only the repeat is wrong.
			first, second := binary.BigEndian.Uint16(b[shared:]), binary.BigEndian.Uint16(b[shared+2:])
			binary.BigEndian.PutUint16(b[shared+2:], first)
			sum := uint32(hashKey(binary.BigEndian.Uint64(b[keysAt+segKeySize*sharedSlot:])) >> 32)
			for ref, d := range map[uint16]uint32{first: 1, second: ^uint32(0)} {
				at := membersAt + 8*int(ref)
				binary.BigEndian.PutUint32(b[at:], binary.BigEndian.Uint32(b[at:])+d)
				binary.BigEndian.PutUint32(b[at+4:], binary.BigEndian.Uint32(b[at+4:])+d*sum)
			}
			return b
		}},
		{name: "duplicate ID", mutate: func(b []byte) []byte {
			// "alice", "carol" and "dave": carol's name becomes alice's.
			copy(b[idsAt+13:idsAt+18], "alice")
			return b
		}},
		{name: "empty ID", mutate: func(b []byte) []byte {
			return slices.Concat(b[:idsAt], []byte{0, 0, 0, 0}, b[idsAt+9:])
		}},
		{name: "member key count", mutate: u32(membersAt, binary.BigEndian.Uint32(pin[membersAt:])+1)},
		{name: "member checksum", mutate: u32(membersAt+4, binary.BigEndian.Uint32(pin[membersAt+4:])+1)},
		{name: "trailing bytes", mutate: func(b []byte) []byte { return slices.Insert(b, len(b)-4, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(bytes.Clone(pin))
			if !tc.keep {
				data = resealed(data)
			}
			if _, err := DecodeSegment(Options{}, data, nil); !errors.Is(err, ErrBadSegment) {
				t.Fatalf("err = %v, want ErrBadSegment", err)
			}
		})
	}
	for _, ids := range [][]string{{"alice", "carol"}, {"alice", "carol", "erin"}, {"alice", "bob", "carol", "dave"}} {
		if _, err := DecodeSegment(Options{}, pin, ids); !errors.Is(err, ErrSegmentIDs) {
			t.Fatalf("ids %q: err = %v, want ErrSegmentIDs", ids, err)
		}
	}
}

// FuzzDecodeSegment feeds DecodeSegment arbitrary bytes, each both as
// given and with its checksum resealed, so the fuzzer reaches the
// structural checks. It must never panic, and a segment it accepts
// must encode back to the same bytes and vote without failing.
func FuzzDecodeSegment(f *testing.F) {
	pin, err := os.ReadFile(segmentPin)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pin)
	f.Add([]byte("garbage"))
	for _, n := range []int{4, segHeaderSize, segHeaderSize + 6, len(pin) / 2, len(pin) - 1} {
		f.Add(bytes.Clone(pin[:n]))
	}
	for _, at := range []int{6, 7, 11, segHeaderSize + 3, len(pin) / 2, len(pin) - 12} {
		b := bytes.Clone(pin)
		b[at] ^= 0x80
		f.Add(resealed(b))
	}
	probe := &minutiae.Template{Width: 400, Height: 500, DPI: 500}
	for j := 0; j < 16; j++ {
		probe.Minutiae = append(probe.Minutiae, minutiae.Minutia{
			X: float64(31 + (53*j)%340), Y: float64(29 + (97*j)%440), Angle: float64((7*j)%16)*math.Pi/8 + 0.12,
		})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resealed(data)} {
			ix, err := DecodeSegment(Options{}, in, nil)
			if err != nil {
				if !errors.Is(err, ErrBadSegment) {
					t.Fatalf("error %v is not ErrBadSegment", err)
				}
				continue
			}
			if again := ix.AppendSegment(nil); !bytes.Equal(again, in) {
				t.Fatalf("accepted %d bytes that encode back to %d others", len(in), len(again))
			}
			st := ix.Stats()
			if st.Templates > len(in)/segTemplateSize || st.DistinctKeys > st.Postings {
				t.Fatalf("stats %+v out of %d bytes", st, len(in))
			}
			ix.Candidates(probe, 0)
		}
	})
}

// TestDecodedSegmentHeapPerTemplate holds a decoded segment to what
// Build retains over the same templates, so a replica's resident index
// does not grow because it arrived over the wire. Both keep the
// caller's ID strings. Each side is measured three times and keeps its
// least, and they are compared to the byte per template: the two
// structures are the same, and the readings still differ by ≈ 0.1 B
// per template from run to run.
func TestDecodedSegmentHeapPerTemplate(t *testing.T) {
	const n = 2000
	cohort := population.NewCohort(rng.New(41), population.CohortOptions{Size: n})
	tpls := captureGallery(t, cohort, "D0")
	ids := make([]string, n)
	keys := make([][]uint64, n)
	for i := range ids {
		ids[i] = subjectID(i)
		keys[i] = AppendKeys(nil, tpls[i])
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	retained := func(make func() *Index) float64 {
		before := heap()
		ix := make()
		per := float64(heap()-before) / n
		runtime.KeepAlive(ix)
		return per
	}
	seg := func() []byte {
		ix, err := Build(Options{}, ids, func(dst []uint64, i int) []uint64 { return append(dst, keys[i]...) })
		if err != nil {
			t.Fatal(err)
		}
		return ix.AppendSegment(nil)
	}()
	builtPer, decodedPer := math.Inf(1), math.Inf(1)
	for range 3 {
		builtPer = min(builtPer, retained(func() *Index {
			ix, err := Build(Options{}, ids, func(dst []uint64, i int) []uint64 { return append(dst, keys[i]...) })
			if err != nil {
				t.Fatal(err)
			}
			return ix
		}))
		decodedPer = min(decodedPer, retained(func() *Index {
			ix, err := DecodeSegment(Options{}, seg, ids)
			if err != nil {
				t.Fatal(err)
			}
			return ix
		}))
	}
	t.Logf("Build retains %.1f B per template, a decoded segment %.1f B (%s of segment)", builtPer, decodedPer, byteCount(len(seg)))
	if decodedPer > builtPer+1 {
		t.Errorf("a decoded segment retains %.1f B per template, Build %.1f B", decodedPer, builtPer)
	}
	runtime.KeepAlive(keys)
}

func byteCount(n int) string { return fmt.Sprintf("%.1f KiB", float64(n)/1024) }
