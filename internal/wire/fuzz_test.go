package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes to the only decoder of network
// input: readFrame, then both payload decoders on the op/code byte. The
// seed corpus lives in testdata/fuzz/FuzzReadFrame. Properties:
//
//   - nothing panics;
//   - a length prefix over maxFrameLen is rejected before the scratch
//     buffer grows;
//   - a torn or corrupt stream fails with io.ErrUnexpectedEOF,
//     errFrameTruncated, errFrameCorrupt or errFrameTooLarge, and io.EOF
//     only at a frame boundary;
//   - whatever decodes re-encodes to a frame that decodes to the same
//     value, and every cut of that frame is reported torn.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		consumed := 0
		for {
			capBefore := cap(buf)
			fr, err := readFrame(br, &buf)
			if err != nil {
				checkStreamErr(t, data[consumed:], err, capBefore, cap(buf))
				return
			}
			consumed += fr.size
			fuzzRoundTrip(t, fr)
		}
	})
}

// checkStreamErr validates the error readFrame returned for rest, the
// unread input at the failing frame's start.
func checkStreamErr(t *testing.T, rest []byte, err error, capBefore, capAfter int) {
	t.Helper()
	if len(rest) >= 4 && binary.BigEndian.Uint32(rest) > maxFrameLen {
		if err != errFrameTooLarge {
			t.Fatalf("oversized length prefix = %v, want errFrameTooLarge", err)
		}
		if capAfter != capBefore {
			t.Fatalf("oversized frame grew the scratch buffer from %d to %d bytes", capBefore, capAfter)
		}
		return
	}
	if err == io.EOF {
		if len(rest) != 0 {
			t.Fatalf("io.EOF with %d unread bytes, want a mid-frame error", len(rest))
		}
		return
	}
	if !isTornErr(err) {
		t.Fatalf("torn stream = %v, want a framing error", err)
	}
}

func isTornErr(err error) bool {
	return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, errFrameTruncated) ||
		errors.Is(err, errFrameCorrupt)
}

// fuzzRoundTrip decodes fr's payload both ways; each decode that
// succeeds must survive encode → read → decode unchanged.
func fuzzRoundTrip(t *testing.T, fr frame) {
	t.Helper()
	var it internTable
	var req Request
	if err := decodeRequestFrame(fr.code, fr.payload, &req, &it); err == nil {
		enc := appendRequestFrame(nil, fr.id, &req, fr.crc)
		g := rereadFrame(t, enc, fr)
		var got Request
		if err := decodeRequestFrame(g.code, g.payload, &got, &it); err != nil {
			t.Fatalf("re-encoded request failed to decode: %v", err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("request round trip = %+v, want %+v", got, req)
		}
	} else if !errors.Is(err, errFrameTruncated) {
		t.Fatalf("request decode = %v, want errFrameTruncated", err)
	}
	var resp Response
	if err := decodeResponseFrame(fr.code, fr.payload, &resp); err == nil {
		enc := appendResponseFrame(nil, fr.id, &resp, fr.crc)
		g := rereadFrame(t, enc, fr)
		var got Response
		if err := decodeResponseFrame(g.code, g.payload, &got); err != nil {
			t.Fatalf("re-encoded response failed to decode: %v", err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Fatalf("response round trip = %+v, want %+v", got, resp)
		}
	} else if !errors.Is(err, errFrameTruncated) {
		t.Fatalf("response decode = %v, want errFrameTruncated", err)
	}
}

// rereadFrame reads back the re-encoded frame enc, checking its header
// against the original and that every proper prefix reads as torn.
func rereadFrame(t *testing.T, enc []byte, orig frame) frame {
	t.Helper()
	var buf []byte
	for cut := 1; cut < len(enc); cut++ {
		_, err := readFrame(bufio.NewReaderSize(bytes.NewReader(enc[:cut]), 16), &buf)
		if !isTornErr(err) {
			t.Fatalf("cut at %d/%d = %v, want a torn-frame error", cut, len(enc), err)
		}
	}
	g, err := readFrame(bufio.NewReader(bytes.NewReader(enc)), &buf)
	if err != nil {
		t.Fatalf("re-encoded frame failed to read: %v", err)
	}
	if g.code != orig.code || g.id != orig.id || g.crc != orig.crc || g.size != len(enc) {
		t.Fatalf("re-read header = %+v, want code %d id %d crc %v size %d",
			g, orig.code, orig.id, orig.crc, len(enc))
	}
	return g
}
