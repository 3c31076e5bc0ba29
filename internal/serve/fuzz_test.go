package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/sparse"
)

// FuzzQueryRequest throws arbitrary bytes at POST /query on a tiny loaded
// graph: the decoder and the parameter validation must turn every one of them
// into a typed reply — never a panic, never a 5xx other than the typed 504,
// always a JSON body. A request that asks for a long run (a huge max_iter, a
// timeout_ms of days) is cut off by the request context's own two-second
// deadline, which the handler answers with that same 504.
func FuzzQueryRequest(f *testing.F) {
	for _, seed := range []string{
		`{"graph":"g","op":"bfs","source":3}`,
		`{"graph":"g","op":"sssp","source":0}`,
		`{"graph":"g","op":"pagerank"}`,
		`{"graph":"g","op":"pagerank","damping":0.85,"tol":1e-6,"max_iter":100}`,
		`{"graph":"g","op":"pagerank","max_iter":100000,"tol":1e-30}`,
		`{"graph":"g","op":"cc","timeout_ms":5000}`,
		`{"graph":"g","op":"triangles"}`,
		`{"graph":"g","op":"pagerank","budget_ms":1e-9}`,
		`{"graph":"g","op":"bfs","budget_ms":1e12}`,
		`{"graph":"nope","op":"bfs"}`,
		`{"graph":"g","op":"sort"}`,
		`{"graph":"g","op":"bfs","source":9999}`,
		`{"graph":"g","op":"bfs","source":0,"chaos_seed":1}`,
		`{"graph":"g","op":"bfs","source":0,"chaos_seed":2,"chaos_policy":"failover","crash_locale":2,"crash_step":7}`,
		`{"graph":"g","op":"bfs","source":0,"chaos_seed":3,"chaos_policy":"besteffort","crash_locale":2,"crash_step":4}`,
		`{"graph":"g","op":"cc","chaos_policy":"abandon","chaos_seed":1}`,
		`{"graph":"g","op":"sssp","source":-1}`,
		`{"graph":"g","op":"bfs","source":1e3}`,
		`[1,2,3]`, `{"graph":7}`, `{`, ``, `null`,
	} {
		f.Add([]byte(seed))
	}
	s := New(openTenants)
	if err := s.LoadGraph("g", sparse.ErdosRenyi[float64](24, 3, 5)); err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	allowed := map[int]bool{
		http.StatusOK: true, http.StatusBadRequest: true, http.StatusNotFound: true,
		http.StatusRequestEntityTooLarge: true, http.StatusTooManyRequests: true, http.StatusGatewayTimeout: true,
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)).WithContext(ctx))
		if !allowed[rr.Code] {
			t.Fatalf("status %d for body %q: %s", rr.Code, body, rr.Body.Bytes())
		}
		if !json.Valid(rr.Body.Bytes()) {
			t.Fatalf("status %d with a body that is not JSON: %q", rr.Code, rr.Body.Bytes())
		}
		if n := s.limit.inFlight(); n != 0 {
			t.Fatalf("%d admission slots held after the reply", n)
		}
	})
}

// FuzzMutateRequest throws arbitrary bytes at POST /graphs/g/mutate on a tiny
// graph: never a panic, never a 5xx, always a JSON body, and a request that is
// not accepted stages nothing — Pending is what it was, so the next flush
// cannot commit half of a refused batch.
func FuzzMutateRequest(f *testing.F) {
	for _, seed := range []string{
		`{"rows":[0],"cols":[9],"vals":[1]}`,
		`{"rows":[0,1],"cols":[1,2],"vals":[9,9],"del_rows":[3],"del_cols":[4]}`,
		`{"rows":[0,1],"cols":[1,2],"vals":[9,9],"del_rows":[3,24],"del_cols":[4,0]}`,
		`{"rows":[0,1],"cols":[1,-2],"vals":[9,9]}`,
		`{"del_rows":[0],"del_cols":[0]}`,
		`{"del_rows":[0,1],"del_cols":[0]}`,
		`{"rows":[0],"cols":[1],"vals":[]}`,
		`{"rows":[1e3],"cols":[1],"vals":[1]}`,
		`{"rows":[0],"cols":[1],"vals":[1e400]}`,
		`{"rows":"x"}`, `[1]`, `{`, ``, `null`, `{}`,
	} {
		f.Add([]byte(seed))
	}
	s := New(openTenants)
	if err := s.LoadGraph("g", sparse.ErdosRenyi[float64](24, 3, 5)); err != nil {
		f.Fatal(err)
	}
	g := s.graphByName("g")
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		before := g.stream.Pending()
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/graphs/g/mutate", bytes.NewReader(body)))
		if rr.Code >= 500 {
			t.Fatalf("status %d for body %q: %s", rr.Code, body, rr.Body.Bytes())
		}
		if !json.Valid(rr.Body.Bytes()) {
			t.Fatalf("status %d with a body that is not JSON: %q", rr.Code, rr.Body.Bytes())
		}
		if after := g.stream.Pending(); rr.Code != http.StatusOK && after != before {
			t.Fatalf("status %d for body %q, yet pending went %d -> %d", rr.Code, body, before, after)
		}
	})
}
