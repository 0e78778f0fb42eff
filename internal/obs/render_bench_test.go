package obs_test

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"react/internal/service"
	"react/internal/store"
)

// discardResponse is a reusable http.ResponseWriter that drops the body,
// so the benchmark times rendering rather than buffer growth.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// BenchmarkRegistryRender times both renderings of reactd's real metrics
// registry — the full registration set of a clustered node with a disk
// store — as its two metrics endpoints serve them.
func BenchmarkRegistryRender(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	srv, err := service.New(service.Config{
		Store: st,
		Self:  "http://127.0.0.1:1",
		Peers: []string{"http://127.0.0.1:2"},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	for _, bc := range []struct{ name, path string }{
		{"prometheus", "/metrics"},
		{"json", "/metrics.json"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, bc.path, nil)
			req.Body = nil // nothing to cap or drain
			w := &discardResponse{h: http.Header{}}
			b.ReportAllocs()
			for b.Loop() {
				srv.ServeHTTP(w, req)
			}
		})
	}
}
