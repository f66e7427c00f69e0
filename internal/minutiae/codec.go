package minutiae

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Binary template format, modelled on ISO/IEC 19794-2 compact cards:
//
//	offset  size  field
//	0       4     magic "FMR\x00"
//	4       2     format version (big endian), currently 1
//	6       2     image width in pixels
//	8       2     image height in pixels
//	10      2     resolution in DPI
//	12      2     minutia count
//	14      8·n   minutiae records
//
// Each minutia record is 8 bytes:
//
//	0  2   type (2 bits) << 14 | x (14 bits, fixed-point pixels)
//	2  2   y (14 bits)
//	4  2   angle, units of 2π/65536
//	6  1   quality 0..100
//	7  1   reserved (zero)
var (
	magic = [4]byte{'F', 'M', 'R', 0}

	// ErrBadMagic reports a stream that is not a serialized template.
	ErrBadMagic = errors.New("minutiae: bad template magic")
	// ErrTruncated reports a stream shorter than its declared contents.
	ErrTruncated = errors.New("minutiae: truncated template")
)

const (
	headerSize  = 14
	recordSize  = 8
	formatV1    = 1
	maxCoord    = 1<<14 - 1
	angleUnits  = 65536.0
	maxMinutiae = 1 << 12
)

// Marshal serializes the template. A nil template is an error, like an
// invalid one: callers reach here with whatever their caller passed.
func Marshal(t *Template) ([]byte, error) {
	return AppendMarshal(nil, t)
}

// AppendMarshal appends the serialized template to dst: Marshal for a
// caller that encodes many templates through one buffer. On error dst
// is returned unchanged.
func AppendMarshal(dst []byte, t *Template) ([]byte, error) {
	if t == nil {
		return dst, errors.New("minutiae: marshal: nil template")
	}
	if err := t.Validate(); err != nil {
		return dst, fmt.Errorf("marshal: %w", err)
	}
	if t.Width > maxCoord || t.Height > maxCoord {
		return dst, fmt.Errorf("minutiae: dimensions %dx%d exceed 14-bit coordinate space", t.Width, t.Height)
	}
	if len(t.Minutiae) > maxMinutiae {
		return dst, fmt.Errorf("minutiae: %d minutiae exceed format cap %d", len(t.Minutiae), maxMinutiae)
	}
	// Every byte of the new region is written below.
	n, size := len(dst), headerSize+recordSize*len(t.Minutiae)
	dst = slices.Grow(dst, size)[:n+size]
	buf := dst[n:]
	copy(buf[0:4], magic[:])
	binary.BigEndian.PutUint16(buf[4:6], formatV1)
	binary.BigEndian.PutUint16(buf[6:8], uint16(t.Width))
	binary.BigEndian.PutUint16(buf[8:10], uint16(t.Height))
	binary.BigEndian.PutUint16(buf[10:12], uint16(t.DPI))
	binary.BigEndian.PutUint16(buf[12:14], uint16(len(t.Minutiae)))
	for i, m := range t.Minutiae {
		rec := buf[headerSize+i*recordSize:]
		var kind uint16
		switch m.Kind {
		case Ending:
			kind = 1
		case Bifurcation:
			kind = 2
		}
		// Coordinates are valid in [0, dim), so rounding may land exactly
		// on the dimension (e.g. x=403.6 in a 404-wide window); clamp to
		// the last in-bounds pixel or the round trip fails validation.
		x := uint16(roundUnits(m.X))
		y := uint16(roundUnits(m.Y))
		if x >= uint16(t.Width) {
			x = uint16(t.Width) - 1
		}
		if y >= uint16(t.Height) {
			y = uint16(t.Height) - 1
		}
		binary.BigEndian.PutUint16(rec[0:2], kind<<14|x)
		binary.BigEndian.PutUint16(rec[2:4], y)
		angle := uint16(roundUnits(NormalizeAngle(m.Angle) / (2 * math.Pi) * angleUnits))
		binary.BigEndian.PutUint16(rec[4:6], angle)
		q := m.Quality
		if q > 100 {
			q = 100
		}
		rec[6] = q
		rec[7] = 0
	}
	return dst, nil
}

// roundUnits is math.Round for what the codec rounds: a coordinate in
// [0, 16384) or an angle in [0, 65536] units, or NaN (which Validate
// lets through), each converted as before. v − trunc(v) is exact there,
// so rounding half away from zero is one compare, without Round's bit
// manipulation — a third of a gallery snapshot's encoding time.
func roundUnits(v float64) uint32 {
	n := uint32(v)
	if v-float64(n) >= 0.5 {
		n++
	}
	return n
}

// Unmarshal parses a serialized template.
func Unmarshal(data []byte) (*Template, error) {
	if len(data) < headerSize {
		return nil, ErrTruncated
	}
	if data[0] != magic[0] || data[1] != magic[1] || data[2] != magic[2] || data[3] != magic[3] {
		return nil, ErrBadMagic
	}
	if v := binary.BigEndian.Uint16(data[4:6]); v != formatV1 {
		return nil, fmt.Errorf("minutiae: unsupported format version %d", v)
	}
	t := &Template{
		Width:  int(binary.BigEndian.Uint16(data[6:8])),
		Height: int(binary.BigEndian.Uint16(data[8:10])),
		DPI:    int(binary.BigEndian.Uint16(data[10:12])),
	}
	n := int(binary.BigEndian.Uint16(data[12:14]))
	if len(data) < headerSize+n*recordSize {
		return nil, ErrTruncated
	}
	t.Minutiae = make([]Minutia, n)
	for i := 0; i < n; i++ {
		rec := data[headerSize+i*recordSize:]
		word := binary.BigEndian.Uint16(rec[0:2])
		var kind Type
		switch word >> 14 {
		case 1:
			kind = Ending
		case 2:
			kind = Bifurcation
		default:
			return nil, fmt.Errorf("minutiae: record %d has invalid type %d", i, word>>14)
		}
		t.Minutiae[i] = Minutia{
			X:       float64(word & maxCoord),
			Y:       float64(binary.BigEndian.Uint16(rec[2:4]) & maxCoord),
			Angle:   float64(binary.BigEndian.Uint16(rec[4:6])) / angleUnits * 2 * math.Pi,
			Kind:    kind,
			Quality: rec[6],
		}
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("unmarshal: %w", err)
	}
	return t, nil
}
