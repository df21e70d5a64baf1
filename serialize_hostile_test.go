package actjoin

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"actjoin/internal/fault"
)

// Hostile-input coverage for ReadIndexFrom: a header may claim astronomical
// record counts, and every claim must be rejected against the bytes actually
// present *before* anything is allocated for it — a 40-byte file must never
// provoke a multi-gigabyte make(). These bodies carry a valid CRC, so they
// reach the decoder proper (the fuzz corpus' corrupt-CRC rejects are pinned
// separately below).

// craftIndexFile wraps a body in a valid header: magic, current version, and
// the body's real CRC.
func craftIndexFile(body []byte) []byte {
	out := []byte(indexMagic)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], indexVersion)
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(body))
	return append(append(out, hdr[:]...), body...)
}

// hostilePreamble emits the fixed-size fields before the polygon section:
// granularity 1, precision 0, level 0.
func hostilePreamble() []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0))
	b = binary.LittleEndian.AppendUint32(b, 0)
	return b
}

func TestReadIndexFromRejectsHostileCounts(t *testing.T) {
	u32 := binary.LittleEndian.AppendUint32
	u64 := binary.LittleEndian.AppendUint64
	cases := []struct {
		name string
		body []byte
		want string
	}{
		{
			// 2^29 polygons claimed (inside the MaxPolygons bound), zero
			// bytes behind the claim.
			name: "huge polygon count",
			body: u32(hostilePreamble(), 1<<29),
			want: "actjoin: polygon count 536870912 exceeds remaining input (0 bytes)",
		},
		{
			name: "huge ring count",
			body: u32(u32(hostilePreamble(), 1), 1<<20),
			want: "actjoin: polygon 0: ring count 1048576 exceeds remaining input (0 bytes)",
		},
		{
			name: "huge vertex count",
			body: u32(u32(u32(hostilePreamble(), 1), 1), 1<<24),
			want: "actjoin: polygon 0 ring 0: vertex count 16777216 exceeds remaining input (0 bytes)",
		},
		{
			// Zero polygons, then 2^40 cells claimed against an empty tail.
			name: "huge cell count",
			body: u64(u32(hostilePreamble(), 0), 1<<40),
			want: "actjoin: cell count 1099511627776 exceeds remaining input (0 bytes)",
		},
		{
			// One plausible cell record whose ref count claims 2^20 refs with
			// 4 bytes behind it. The trailing ref keeps the cell-count bound
			// (>= 16 bytes per record) satisfied so the ref check is reached.
			name: "huge ref count",
			body: u32(u32(u64(u64(u32(hostilePreamble(), 0), 1), 0), 1<<20), 7),
			want: "actjoin: cell 0: ref count 1048576 exceeds remaining input (4 bytes)",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadIndexFrom(bytes.NewReader(craftIndexFile(tc.body)))
			if err == nil {
				t.Fatal("hostile header accepted")
			}
			if err.Error() != tc.want {
				t.Fatalf("error %q, want %q", err, tc.want)
			}
		})
	}
}

// TestReadIndexFromRejectsOutOfRangeVertices pins the loader to the vertex
// rule NewIndex applies: a file with a valid CRC whose first vertex is NaN,
// infinite or off the globe must not load (and so can never put a
// non-finite bound into a polygon's band index).
func TestReadIndexFromRejectsOutOfRangeVertices(t *testing.T) {
	ix, err := NewIndex([]Polygon{{Exterior: Ring{
		{Lon: -74, Lat: 40.7}, {Lon: -73.99, Lat: 40.7}, {Lon: -73.99, Lat: 40.71}, {Lon: -74, Lat: 40.71},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.Current().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Body offset of the first vertex: delta u32, precision f64, level u32,
	// polygon count u32, ring count u32, vertex count u32.
	const lonAt, latAt = 4 + 8 + 4 + 4 + 4 + 4, 4 + 8 + 4 + 4 + 4 + 4 + 8
	cases := []struct {
		name string
		at   int
		v    float64
		want string
	}{
		{"lon NaN", lonAt, math.NaN(), "(NaN, 40.7)"},
		{"lon +Inf", lonAt, math.Inf(1), "(+Inf, 40.7)"},
		{"lon -Inf", lonAt, math.Inf(-1), "(-Inf, 40.7)"},
		{"lon 500", lonAt, 500, "(500, 40.7)"},
		{"lat -95", latAt, -95, "(-74, -95)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := append([]byte(nil), buf.Bytes()[12:]...)
			binary.LittleEndian.PutUint64(body[tc.at:], math.Float64bits(tc.v))
			_, err := ReadIndexFrom(bytes.NewReader(craftIndexFile(body)))
			if err == nil {
				t.Fatal("out-of-range vertex accepted")
			}
			if want := "actjoin: polygon 0 ring 0: vertex 0 out of range: " + tc.want; err.Error() != want {
				t.Fatalf("error %q, want %q", err, want)
			}
		})
	}
}

// The two hand-written fuzz seeds, promoted to always-on unit tests with
// exact error assertions (the fuzzer only checks "no panic, no success").

// TestReadIndexFromFuzzSeedHugeCount is the seed-huge-count corpus entry: a
// valid magic and version followed by 24 bytes of 0xff — an absurd CRC and
// an absurd count. The CRC gate rejects it before any count is even read;
// the counts themselves are covered with valid CRCs above.
func TestReadIndexFromFuzzSeedHugeCount(t *testing.T) {
	data := append([]byte("ACTJ\x01\x00\x00\x00"), bytes.Repeat([]byte{0xff}, 24)...)
	_, err := ReadIndexFrom(bytes.NewReader(data))
	if err == nil {
		t.Fatal("seed-huge-count accepted")
	}
	if want := "actjoin: index file corrupted (crc mismatch)"; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}

// TestReadIndexFromFuzzSeedTruncatedHeader is the seed-truncated-header
// corpus entry: magic plus version, cut off before the CRC.
func TestReadIndexFromFuzzSeedTruncatedHeader(t *testing.T) {
	_, err := ReadIndexFrom(bytes.NewReader([]byte("ACTJ\x01\x00\x00\x00")))
	if err == nil {
		t.Fatal("seed-truncated-header accepted")
	}
	if want := "actjoin: reading header: unexpected EOF"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q, want %q", err, want)
	}
}

// TestSerializeFaultInjection pins the serialization seams to the fault
// layer: an injected fault surfaces as an ordinary error (typed *Injected)
// from WriteTo and ReadIndexFrom, with nothing written and nothing built.
func TestSerializeFaultInjection(t *testing.T) {
	ix, err := NewIndex([]Polygon{{Exterior: Ring{
		{Lon: -74, Lat: 40.7}, {Lon: -73.99, Lat: 40.7}, {Lon: -73.99, Lat: 40.71}, {Lon: -74, Lat: 40.71},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.Current().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	fault.Enable(fault.NewSchedule(
		fault.Rule{Point: fault.SerializeWrite, Nth: 1, Times: 1, Mode: fault.Error},
		fault.Rule{Point: fault.SerializeRead, Nth: 1, Times: 1, Mode: fault.Error},
	))
	t.Cleanup(fault.Disable)

	var out bytes.Buffer
	n, err := ix.Current().WriteTo(&out)
	var inj *fault.Injected
	if !errors.As(err, &inj) || inj.Point != fault.SerializeWrite {
		t.Fatalf("WriteTo error = %v, want injected %s", err, fault.SerializeWrite)
	}
	if n != 0 || out.Len() != 0 {
		t.Fatalf("failed WriteTo wrote %d bytes (reported %d), want none", out.Len(), n)
	}
	if _, err := ReadIndexFrom(bytes.NewReader(buf.Bytes())); !errors.As(err, &inj) || inj.Point != fault.SerializeRead {
		t.Fatalf("ReadIndexFrom error = %v, want injected %s", err, fault.SerializeRead)
	}
	fault.Disable()

	// Faults exhausted: the same bytes round-trip.
	loaded, err := ReadIndexFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("round trip after faults cleared: %v", err)
	}
	var again bytes.Buffer
	if _, err := loaded.Current().WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("round-tripped bytes differ")
	}
}
