package render_test

import (
	"bytes"
	"image/png"
	"testing"

	"repro/internal/auigen"
	"repro/internal/render"
)

func init() { render.HiresScreens = hiresScreens }

// hiresScreens is render.HiresScreens: the generator's 192x320 screens, AUI
// and benign, pixel-doubled to 384x640 and encoded at BestSpeed, as
// BenchmarkReadScreen (internal/httpd) builds serve-hires bodies.
func hiresScreens(t testing.TB) [][]byte {
	cfg := auigen.DatasetConfig{InputW: 192, InputH: 320}
	var bodies [][]byte
	for _, s := range append(auigen.BuildAUISamples(1, 4, cfg), auigen.BuildNegativeSamples(2, 12, cfg)...) {
		c := render.NewCanvas(2*s.Input.W, 2*s.Input.H)
		for y := 0; y < c.H; y++ {
			for x := 0; x < c.W; x++ {
				c.Set(x, y, s.Input.At(x/2, y/2))
			}
		}
		var buf bytes.Buffer
		if err := (&png.Encoder{CompressionLevel: png.BestSpeed}).Encode(&buf, c.Image()); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, buf.Bytes())
	}
	return bodies
}

var sinkCanvas *render.Canvas

// BenchmarkDecodePNG decodes hiresScreens to the model's 96x160: the served
// front end's decode alone, without the handler around it.
func BenchmarkDecodePNG(b *testing.B) {
	bodies := hiresScreens(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, _, _, err := render.DecodePNG(bodies[i%len(bodies)], 96, 160)
		if err != nil {
			b.Fatal(err)
		}
		sinkCanvas = c
	}
}
