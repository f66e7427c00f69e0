package minutiae

import (
	"bytes"
	"testing"
	"testing/quick"
)

// Unmarshal must reject, never panic on, arbitrary input — templates
// arrive over the network in the matching service.
func TestUnmarshalNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Unmarshal panicked on %d bytes: %v", len(data), r)
			}
		}()
		tpl, err := Unmarshal(data)
		// Either a clean error or a template that validates.
		if err == nil {
			if verr := tpl.Validate(); verr != nil {
				t.Fatalf("Unmarshal accepted invalid template: %v", verr)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Unmarshal must also survive corrupted versions of valid templates.
func TestUnmarshalCorruptedValidTemplate(t *testing.T) {
	tpl := validTemplate()
	data, err := Marshal(tpl)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		for _, flip := range []byte{0xff, 0x80, 0x01} {
			mut := append([]byte(nil), data...)
			mut[i] ^= flip
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic with byte %d flipped by %x: %v", i, flip, r)
					}
				}()
				if out, err := Unmarshal(mut); err == nil {
					if verr := out.Validate(); verr != nil {
						t.Fatalf("corrupted template accepted: %v", verr)
					}
				}
			}()
		}
	}
}

// FuzzUnmarshal is the native fuzz target behind the two tests above:
// any byte string is either refused or decodes to a template that
// validates, and a decoded template is a fixed point of the codec — it
// re-encodes (when its window fits the format's 14-bit coordinates) to
// bytes that decode to the same geometry and re-encode to themselves.
func FuzzUnmarshal(f *testing.F) {
	valid, err := Marshal(validTemplate())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:headerSize])
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{})
	for _, corrupt := range []struct {
		at  int
		val byte
	}{
		{0, 'X'},                // magic
		{5, 2},                  // version
		{6, 0xFF},               // width past the 14-bit coordinate space
		{13, 200},               // count past the records present
		{headerSize, 0x00},      // type bits 0
		{headerSize, 0xFF},      // type bits 3, x past the window
		{headerSize + 4, 0xFF},  // angle just under 2π
		{headerSize + 6, 0xFF},  // quality past 100
		{headerSize + 7, 0x55},  // reserved byte set
		{headerSize + 10, 0xFF}, // second record's y past the window
	} {
		mut := append([]byte(nil), valid...)
		mut[corrupt.at] = corrupt.val
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tpl, err := Unmarshal(data)
		if err != nil {
			return
		}
		if err := tpl.Validate(); err != nil {
			t.Fatalf("Unmarshal accepted an invalid template: %v", err)
		}
		again, err := Marshal(tpl)
		if err != nil {
			if tpl.Width <= maxCoord && tpl.Height <= maxCoord {
				t.Fatalf("decoded template does not re-encode: %v", err)
			}
			return
		}
		tpl2, err := Unmarshal(again)
		if err != nil {
			t.Fatalf("re-encoded template does not decode: %v", err)
		}
		if len(tpl2.Minutiae) != len(tpl.Minutiae) || tpl2.Width != tpl.Width || tpl2.Height != tpl.Height || tpl2.DPI != tpl.DPI {
			t.Fatalf("round trip changed the header: %+v vs %+v", tpl2, tpl)
		}
		for i, m := range tpl.Minutiae {
			m2 := tpl2.Minutiae[i]
			if m2.X != m.X || m2.Y != m.Y || m2.Angle != m.Angle || m2.Kind != m.Kind {
				t.Fatalf("round trip moved minutia %d: %+v vs %+v", i, m2, m)
			}
		}
		third, err := Marshal(tpl2)
		if err != nil || !bytes.Equal(third, again) {
			t.Fatalf("canonical bytes are not a fixed point (%v)", err)
		}
	})
}
