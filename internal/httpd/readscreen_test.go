package httpd

import (
	"bytes"
	"compress/zlib"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"image/png"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/auigen"
	"repro/internal/render"
)

// declaredPNG hand-builds a well-formed truecolour PNG whose IHDR declares
// w x h but whose IDAT carries 64 bytes: what a decompression bomb looks
// like on the wire. png.Decode allocates 4*w*h bytes on reaching the IDAT.
func declaredPNG(w, h uint32) []byte {
	var buf bytes.Buffer
	buf.WriteString("\x89PNG\r\n\x1a\n")
	chunk := func(typ string, data []byte) {
		body := append([]byte(typ), data...)
		binary.Write(&buf, binary.BigEndian, uint32(len(data)))
		buf.Write(body)
		binary.Write(&buf, binary.BigEndian, crc32.ChecksumIEEE(body))
	}
	ihdr := make([]byte, 13)
	binary.BigEndian.PutUint32(ihdr[0:], w)
	binary.BigEndian.PutUint32(ihdr[4:], h)
	ihdr[8], ihdr[9] = 8, 2 // 8 bits per channel, truecolour
	chunk("IHDR", ihdr)
	var z bytes.Buffer
	zw := zlib.NewWriter(&z)
	zw.Write(make([]byte, 64))
	zw.Close()
	chunk("IDAT", z.Bytes())
	chunk("IEND", nil)
	return buf.Bytes()
}

type screenBody struct {
	ctype string
	body  []byte
}

// screenBodies wraps would-be PNG bytes in both request encodings.
func screenBodies(png []byte) []screenBody {
	wrapped, _ := json.Marshal(DetectRequest{Screen: base64.StdEncoding.EncodeToString(png)})
	return []screenBody{{"image/png", png}, {"application/json", wrapped}}
}

// postScreen sends b to /v1/detect; doDetect fails the test on a non-JSON answer.
func postScreen(t *testing.T, s *Server, b screenBody) (*httptest.ResponseRecorder, DetectResponse) {
	t.Helper()
	return doDetect(t, s, map[string]string{"Content-Type": b.ctype}, bytes.NewReader(b.body))
}

// A few hundred bytes declaring 30000x30000 must be refused from the header
// alone: decoding would allocate 3.6 GB before finding there is no picture.
func TestDetectRefusesOversizeHeaderBeforeDecoding(t *testing.T) {
	backend := &wireStub{dets: testDets()}
	s := New(Config{Backend: backend})
	bomb := declaredPNG(30000, 30000)
	if len(bomb) > 200 {
		t.Fatalf("bomb is %d bytes, meant to be tiny", len(bomb))
	}
	for _, b := range screenBodies(bomb) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w, resp := postScreen(t, s, b)
		runtime.ReadMemStats(&after)
		if w.Code != http.StatusBadRequest || !strings.Contains(resp.Error, "30000x30000 exceeds") {
			t.Errorf("%s: status %d error %q, want 400 naming the declared size", b.ctype, w.Code, resp.Error)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: refusing allocated %d bytes: the image was decoded first", b.ctype, got)
		}
	}
	if backend.calls != 0 {
		t.Errorf("backend saw %d calls for refused screens", backend.calls)
	}
	// The limit itself is still a screen.
	if w, resp := postScreen(t, s, screenBody{"image/png", declaredPNG(4096, 4096)}); !strings.Contains(resp.Error, "decoding PNG") {
		t.Errorf("4096x4096 should reach the decoder (and fail there, having no pixels): %d %q", w.Code, resp.Error)
	}
}

// FuzzReadScreen: whatever bytes arrive on either body path, the handler
// answers 200 or 400 and never panics (httptest calls it directly, so a
// panic fails the run).
func FuzzReadScreen(f *testing.F) {
	valid := screenPNG(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(declaredPNG(30000, 30000))
	f.Add([]byte(`{"screen":"!!!"}`))
	f.Add([]byte{})
	s := New(Config{Backend: &wireStub{dets: testDets()}})
	f.Fuzz(func(t *testing.T, data []byte) {
		// data as a PNG on both paths, and as the JSON document itself.
		for _, b := range append(screenBodies(data), screenBody{"application/json", data}) {
			w, resp := postScreen(t, s, b)
			if w.Code != http.StatusOK && w.Code != http.StatusBadRequest {
				t.Fatalf("%s: status %d, want 200 or 400: %s", b.ctype, w.Code, w.Body.String())
			}
			if (w.Code == http.StatusOK) != (resp.Error == "") || int64(resp.Width)*int64(resp.Height) > maxScreenPixels {
				t.Fatalf("%s: status %d, error %q, %dx%d", b.ctype, w.Code, resp.Error, resp.Width, resp.Height)
			}
		}
	})
}

// pixelDouble returns c at twice the size, every pixel repeated 2x2: the
// same layout on a denser display.
func pixelDouble(c *render.Canvas) *render.Canvas {
	out := render.NewCanvas(2*c.W, 2*c.H)
	for y := 0; y < out.H; y++ {
		for x := 0; x < out.W; x++ {
			out.Set(x, y, c.At(x/2, y/2))
		}
	}
	return out
}

// readScreenBodies returns generated screens as raw PNG bodies, encoded as a
// device would (BestSpeed), at 96x160, the model's own size, or 384x640, the
// generator's 192x320 layout pixel-doubled: the serve-lowres and serve-hires
// shapes.
func readScreenBodies(tb testing.TB, size string) [][]byte {
	cfg := auigen.DatasetConfig{InputW: 192, InputH: 320}
	var bodies [][]byte
	for _, s := range append(auigen.BuildAUISamples(1, 4, cfg), auigen.BuildNegativeSamples(2, 12, cfg)...) {
		c := s.Input.Downscale(96, 160)
		if size == "384x640" {
			c = pixelDouble(s.Input)
		}
		var buf bytes.Buffer
		if err := (&png.Encoder{CompressionLevel: png.BestSpeed}).Encode(&buf, c.Image()); err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, buf.Bytes())
	}
	return bodies
}

// serveBody posts body as a raw PNG through s and fails unless it is served.
func serveBody(tb testing.TB, s *Server, body []byte) {
	req := httptest.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(body))
	req.Header.Set("Content-Type", "image/png")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		tb.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
}

// BenchmarkReadScreen posts readScreenBodies through the real handler in
// front of a stub backend: it times the request front end — readScreen, the
// model tensor and the response — without a forward.
func BenchmarkReadScreen(b *testing.B) {
	for _, size := range []string{"96x160", "384x640"} {
		bodies := readScreenBodies(b, size)
		s := New(Config{Backend: &wireStub{dets: testDets()}})
		b.Run(size, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				serveBody(b, s, bodies[i%len(bodies)])
			}
		})
	}
}

// TestReadScreenAllocs: a served request allocates little beyond its
// answer. Posted as BenchmarkReadScreen posts them, the bytes a request
// allocates, averaged over 50, stay under a quarter of the 314 087 (96x160)
// and 322 929 (384x640) a request allocated when each took a fresh canvas,
// flate reader and 184 KB tensor: about 13 and 26 KB. The race detector's
// sync.Pool drops a quarter of its Puts, a 184 KB tensor among them, so the
// figure means nothing under it and the test is skipped there.
func TestReadScreenAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	s := New(Config{Backend: &wireStub{dets: testDets()}})
	for _, c := range []struct {
		size   string
		before uint64
	}{{"96x160", 314087}, {"384x640", 322929}} {
		bodies := readScreenBodies(t, c.size)
		var before, after runtime.MemStats
		serveBody(t, s, bodies[0])
		runtime.ReadMemStats(&before)
		for i := range 50 {
			serveBody(t, s, bodies[i%len(bodies)])
		}
		runtime.ReadMemStats(&after)
		if n := (after.TotalAlloc - before.TotalAlloc) / 50; n > c.before/4 {
			t.Errorf("a %s request allocates %d bytes, want <= %d", c.size, n, c.before/4)
		} else {
			t.Logf("a %s request allocates %d bytes", c.size, n)
		}
	}
}
