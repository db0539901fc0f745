package records

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

// FuzzUnmarshalCommitRecord feeds arbitrary bytes to the commit-record
// decoder, which parses every record a node reads back from storage
// (bootstrap, the partial-metadata read fallback, the fault manager's
// scan). Properties, beyond the committed seed corpus in
// testdata/fuzz/FuzzUnmarshalCommitRecord:
//   - no panic;
//   - input that does not decode — invalid JSON included — yields a
//     non-nil error and a nil record;
//   - a decoded record survives Marshal → Unmarshal unchanged.
func FuzzUnmarshalCommitRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := UnmarshalCommitRecord(data)
		if err != nil {
			if rec != nil {
				t.Fatalf("error %v with non-nil record %+v", err, rec)
			}
			return
		}
		if rec == nil {
			t.Fatal("nil record without an error")
		}
		if !json.Valid(data) {
			t.Fatalf("invalid JSON %q decoded to %+v", data, rec)
		}
		enc, err := rec.Marshal()
		if err != nil {
			t.Fatalf("Marshal(%+v): %v", rec, err)
		}
		back, err := UnmarshalCommitRecord(enc)
		if err != nil {
			t.Fatalf("re-decoding %q: %v", enc, err)
		}
		if !sameRecord(rec, back) {
			t.Fatalf("round trip changed the record:\n%+v\n%+v", rec, back)
		}
	})
}

// sameRecord compares records field by field; a nil and an empty slice
// are the same set (omitempty drops the empty one on Marshal).
func sameRecord(a, b *CommitRecord) bool {
	return a.Timestamp == b.Timestamp && a.UUID == b.UUID &&
		slices.Equal(a.WriteSet, b.WriteSet) && a.Node == b.Node &&
		a.SpillDir == b.SpillDir && slices.Equal(a.Spilled, b.Spilled) &&
		a.Packed == b.Packed && a.TraceID == b.TraceID
}

// FuzzUnpack feeds arbitrary bytes to the packed-object decoder and to
// ExtractPacked, which a read of a packed-layout key runs on the object it
// fetched. Properties, beyond the committed seed corpus in
// testdata/fuzz/FuzzUnpack:
//   - no panic;
//   - input that does not decode yields a non-nil error and a nil map
//     from Unpack, and an error and nil value from ExtractPacked;
//   - ExtractPacked returns exactly Unpack's value for key, and an error
//     when key is absent;
//   - a decoded object survives Pack → Unpack unchanged.
func FuzzUnpack(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, key string) {
		m, err := Unpack(data)
		v, xerr := ExtractPacked(data, key)
		if err != nil {
			if m != nil {
				t.Fatalf("Unpack error %v with non-nil map %v", err, m)
			}
			if xerr == nil || v != nil {
				t.Fatalf("ExtractPacked of undecodable input = %q, %v; want nil and an error", v, xerr)
			}
			return
		}
		if !json.Valid(data) {
			t.Fatalf("invalid JSON %q unpacked to %v", data, m)
		}
		want, ok := m[key]
		switch {
		case !ok && xerr == nil:
			t.Fatalf("ExtractPacked(%q) = %q for a key the object lacks", key, v)
		case ok && (xerr != nil || !bytes.Equal(v, want)):
			t.Fatalf("ExtractPacked(%q) = %q, %v; want %q", key, v, xerr, want)
		}
		enc, err := Pack(m)
		if err != nil {
			t.Fatalf("Pack(%v): %v", m, err)
		}
		back, err := Unpack(enc)
		if err != nil {
			t.Fatalf("re-unpacking %q: %v", enc, err)
		}
		if len(back) != len(m) {
			t.Fatalf("round trip changed the key count: %d then %d", len(m), len(back))
		}
		for k, val := range m {
			if got, ok := back[k]; !ok || !bytes.Equal(got, val) {
				t.Fatalf("round trip changed %q: %q then %q", k, val, got)
			}
		}
	})
}
