package serve

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"protoacc/internal/faults"
)

// FuzzFaultz sends arbitrary tile, faults and seed query values to the
// /faultz admin endpoint of a 2-tile server. Every answer must be 200 or
// 400, and nothing may panic. A 400 changes no tile's schedule; a 200
// that swapped one leaves TileFaults(tile) equal to what the -faults
// grammar parses from the same spec and seed.
func FuzzFaultz(f *testing.F) {
	for _, spec := range []string{"0.1", "0.5@memloader,arena", "off", "0.1@", "NaN", "-1"} {
		f.Add("1", spec, "7")
	}
	for _, tile := range []string{"-1", "2", "x"} {
		f.Add(tile, "0.1", "")
	}
	opts := testOptions()
	opts.Tiles = 2
	srv, err := NewServer(opts)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	h := NewAdminHandler(srv, AdminOptions{})
	f.Fuzz(func(t *testing.T, tile, spec, seed string) {
		before := [2]faults.Config{srv.TileFaults(0), srv.TileFaults(1)}
		q := url.Values{"tile": {tile}, "faults": {spec}, "seed": {seed}}.Encode()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/faultz?"+q, nil))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest:
			if after := [2]faults.Config{srv.TileFaults(0), srv.TileFaults(1)}; after != before {
				t.Fatalf("/faultz?%s answered 400 but changed the schedules from %+v to %+v", q, before, after)
			}
			return
		default:
			t.Fatalf("/faultz?%s answered %d: %s", q, rec.Code, rec.Body)
		}
		if spec == "" {
			return // no swap asked for: the answer only reports
		}
		id, err := strconv.Atoi(tile)
		if err != nil {
			t.Fatalf("/faultz?%s answered 200 for tile %q", q, tile)
		}
		s := uint64(1)
		if seed != "" {
			if s, err = strconv.ParseUint(seed, 10, 64); err != nil {
				t.Fatalf("/faultz?%s answered 200 for seed %q", q, seed)
			}
		}
		want, err := faults.ParseFlag(spec, s)
		if err != nil {
			t.Fatalf("/faultz?%s answered 200 for a spec the -faults grammar rejects: %v", q, err)
		}
		if got := srv.TileFaults(id); got != want {
			t.Fatalf("/faultz?%s: tile %d schedule %+v, want %+v", q, id, got, want)
		}
	})
}
