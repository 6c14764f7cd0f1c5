package snaplog

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// buildLog frames the given payloads (alternating meta/node types for
// variety) and returns the encoded bytes plus the frame descriptors.
func buildLog(t *testing.T, payloads ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i, p := range payloads {
		typ := FrameNode
		if i == 0 {
			typ = FrameMeta
		}
		if err := w.WriteFrame(typ, p); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readAll(r io.Reader) ([]Frame, error) {
	sr := NewReader(r)
	var out []Frame
	for {
		f, err := sr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, f)
	}
}

func TestRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte("meta"),
		{},
		[]byte("node-a"),
		bytes.Repeat([]byte{0xab}, 3*readChunk+17), // forces chunked payload reads
	}
	enc := buildLog(t, payloads...)
	frames, err := readAll(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != len(payloads) {
		t.Fatalf("got %d frames, want %d", len(frames), len(payloads))
	}
	for i, f := range frames {
		if !bytes.Equal(f.Payload, payloads[i]) {
			t.Errorf("frame %d payload mismatch", i)
		}
		wantType := FrameNode
		if i == 0 {
			wantType = FrameMeta
		}
		if f.Type != wantType {
			t.Errorf("frame %d type %d, want %d", i, f.Type, wantType)
		}
	}
}

func TestEmptyLogIsCleanEOF(t *testing.T) {
	frames, err := readAll(bytes.NewReader(nil))
	if err != nil || len(frames) != 0 {
		t.Fatalf("empty log: frames=%d err=%v, want 0/nil", len(frames), err)
	}
}

// TestTruncateEverywhere is the core crash-injection test: cut the log
// at EVERY byte offset and require the reader to either (a) stop at a
// clean frame boundary with io.EOF, or (b) report a *TruncatedError
// whose Offset names the boundary of the last intact frame — never a
// silent short read, never a panic, never corruption misdiagnosed.
func TestTruncateEverywhere(t *testing.T) {
	enc := buildLog(t, []byte("meta"), []byte("node-a"), []byte("node-bb"), []byte("node-ccc"))
	// Collect the clean frame boundaries.
	boundaries := map[int64]int{0: 0}
	r := NewReader(bytes.NewReader(enc))
	for {
		if _, err := r.Next(); err != nil {
			break
		}
		boundaries[r.Offset()] = r.Frames()
	}
	if len(boundaries) != 5 {
		t.Fatalf("expected 5 boundaries, got %d", len(boundaries))
	}
	for cut := 0; cut <= len(enc); cut++ {
		frames, err := readAll(bytes.NewReader(enc[:cut]))
		if wantFrames, clean := boundaries[int64(cut)]; clean {
			if err != nil {
				t.Fatalf("cut %d (boundary): unexpected error %v", cut, err)
			}
			if len(frames) != wantFrames {
				t.Fatalf("cut %d (boundary): got %d frames, want %d", cut, len(frames), wantFrames)
			}
			continue
		}
		var te *TruncatedError
		if !errors.As(err, &te) {
			t.Fatalf("cut %d (mid-frame): got %T %v, want *TruncatedError", cut, err, err)
		}
		if _, ok := boundaries[te.Offset]; !ok {
			t.Fatalf("cut %d: TruncatedError.Offset %d is not a frame boundary", cut, te.Offset)
		}
		if te.Offset >= int64(cut) {
			t.Fatalf("cut %d: tear offset %d not before the cut", cut, te.Offset)
		}
		if len(frames) != boundaries[te.Offset] {
			t.Fatalf("cut %d: recovered %d frames, want %d (prefix up to %d)", cut, len(frames), boundaries[te.Offset], te.Offset)
		}
	}
}

// TestCorruptionDetected flips each byte of the log in turn; every
// flip must surface as *CorruptError or *TruncatedError (a flipped
// length byte can shrink a frame so the stream ends mid-frame), and a
// flip inside frame k must never alter frames 0..k-1.
func TestCorruptionDetected(t *testing.T) {
	payloads := [][]byte{[]byte("meta"), []byte("node-a"), []byte("node-b")}
	enc := buildLog(t, payloads...)
	for i := range enc {
		mut := bytes.Clone(enc)
		mut[i] ^= 0x01
		frames, err := readAll(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
		var ce *CorruptError
		var te *TruncatedError
		if !errors.As(err, &ce) && !errors.As(err, &te) {
			t.Fatalf("flip at byte %d: error %T %v is neither corrupt nor truncated", i, err, err)
		}
		for j, f := range frames {
			if !bytes.Equal(f.Payload, payloads[j]) {
				t.Fatalf("flip at byte %d: intact prefix frame %d altered", i, j)
			}
		}
	}
}

func TestOversizeLengthIsCorrupt(t *testing.T) {
	enc := []byte{0xff, 0xff, 0xff, 0xff, FrameMeta, 0, 0, 0, 0}
	_, err := readAll(bytes.NewReader(enc))
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *CorruptError for oversize length", err)
	}
}

func TestUnknownTypeIsCorrupt(t *testing.T) {
	enc := buildLog(t, []byte("x"))
	enc[4] = 0x7f
	_, err := readAll(bytes.NewReader(enc))
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *CorruptError for unknown type", err)
	}
}

func TestWriterRejectsOversizePayload(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.WriteFrame(FrameNode, make([]byte, MaxPayload+1)); err == nil {
		t.Fatal("oversize payload accepted")
	}
	// The size error must not poison the writer.
	if err := w.WriteFrame(FrameNode, []byte("ok")); err != nil {
		t.Fatalf("writer poisoned by rejected payload: %v", err)
	}
}

// failAfter fails with errInjected once limit bytes have been written,
// modelling a disk that fills or a process killed mid-write.
type failAfter struct {
	limit int
	n     int
}

var errInjected = errors.New("injected write failure")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n+len(p) > f.limit {
		ok := f.limit - f.n
		if ok < 0 {
			ok = 0
		}
		f.n += ok
		return ok, errInjected
	}
	f.n += len(p)
	return len(p), nil
}

// TestWriterErrorPropagatesAndPoisons injects a write failure at every
// possible byte budget and requires (a) the error to surface on
// WriteFrame or Flush, and (b) every subsequent call to repeat it.
func TestWriterErrorPropagatesAndPoisons(t *testing.T) {
	payloads := [][]byte{[]byte("meta"), []byte("node-a"), []byte("node-bb")}
	full := buildLog(t, payloads...)
	for limit := 0; limit < len(full); limit++ {
		sink := &failAfter{limit: limit}
		w := NewWriter(sink)
		var firstErr error
		for i, p := range payloads {
			typ := FrameNode
			if i == 0 {
				typ = FrameMeta
			}
			if err := w.WriteFrame(typ, p); err != nil {
				firstErr = err
				break
			}
		}
		if firstErr == nil {
			firstErr = w.Flush()
		}
		if !errors.Is(firstErr, errInjected) {
			t.Fatalf("limit %d: injected failure did not surface (got %v)", limit, firstErr)
		}
		if err := w.WriteFrame(FrameNode, []byte("later")); !errors.Is(err, errInjected) {
			t.Fatalf("limit %d: poisoned writer accepted a frame (err=%v)", limit, err)
		}
		if err := w.Flush(); !errors.Is(err, errInjected) {
			t.Fatalf("limit %d: poisoned writer flushed (err=%v)", limit, err)
		}
	}
}

// TestErrorStringsNameOffsets pins the diagnostic content: truncation
// and corruption errors must carry offsets a human can act on.
func TestErrorStringsNameOffsets(t *testing.T) {
	te := &TruncatedError{Offset: 42, Frames: 3}
	if want := "byte 42"; !bytes.Contains([]byte(te.Error()), []byte(want)) {
		t.Errorf("TruncatedError %q does not name %q", te.Error(), want)
	}
	ce := &CorruptError{Offset: 7, Reason: "CRC mismatch"}
	for _, want := range []string{"byte 7", "CRC mismatch"} {
		if !bytes.Contains([]byte(ce.Error()), []byte(want)) {
			t.Errorf("CorruptError %q does not name %q", ce.Error(), want)
		}
	}
}

// TestChunkedReadDoesNotPreallocateLie verifies the lying-length
// defence: a frame claiming MaxPayload bytes but delivering only a few
// must fail as truncated without the reader having had any reason to
// allocate the full claim (structurally guaranteed by the chunked
// loop; this test pins the behaviour).
func TestChunkedReadDoesNotPreallocateLie(t *testing.T) {
	var buf bytes.Buffer
	b := make([]byte, 4)
	for i, v := range []byte{0, 0, 16, 0} { // claims 1 MiB
		b[i] = v
	}
	buf.Write(b)
	buf.WriteByte(FrameMeta)
	buf.WriteString("tiny")
	_, err := readAll(bytes.NewReader(buf.Bytes()))
	var te *TruncatedError
	if !errors.As(err, &te) {
		t.Fatalf("got %v, want *TruncatedError", err)
	}
}

func BenchmarkWriteFrame(b *testing.B) {
	payload := make([]byte, 512)
	w := NewWriter(io.Discard)
	b.SetBytes(int64(len(payload) + 9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WriteFrame(FrameNode, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadFrame decodes a 1024-frame log per op and counts every
// byte it reads, so MB/s is right at any -benchtime, 1x included.
func BenchmarkReadFrame(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	payload := make([]byte, 512)
	for i := 0; i < 1024; i++ {
		if err := w.WriteFrame(FrameNode, payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := readAll(bytes.NewReader(enc)); err != nil {
			b.Fatal(err)
		}
	}
}
