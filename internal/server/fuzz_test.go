package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"touch"
	"touch/internal/api"
)

// FuzzHTTPDataPlane posts arbitrary bodies to the three data-plane routes
// of one server — query, join (buffered and NDJSON) and update. No body
// may panic the server or earn a 5xx, and every 200 must decode, strictly,
// into the shape its route promises.
func FuzzHTTPDataPlane(f *testing.F) {
	s := New(Config{maxJoinPairs: 2000, compactThreshold: -1})
	s.Load("d", touch.GenerateUniform(300, 1), touch.TOUCHConfig{})
	s.Load("p", touch.GenerateUniform(40, 2), touch.TOUCHConfig{})
	for _, seed := range []struct {
		route byte
		body  string
	}{
		{0, `{"type":"range","box":[0,0,0,400,400,400]}`},
		{0, `{"type":"point","point":[500,500,500]}`},
		{0, `{"type":"knn","point":[1,2,3],"k":4294967297}`},
		{0, `{"type":"knn","point":[1,2,3],"k":-3000000000}`},
		{1, `{"boxes":[[0,0,0,300,300,300]],"eps":2,"workers":4294967297}`},
		{1, `{"probe":"p","eps":5,"count_only":true}`},
		{2, `{"probe":"p","eps":1}`},
		{2, `{"boxes":[]}`},
		{3, `{"insert":[[1,1,1,2,2,2]],"delete":[3,4]}`},
		{3, `{"delete":[-1]}`},
	} {
		f.Add(seed.route, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, route byte, body []byte) {
		method, path, accept := http.MethodPost, "/v1/datasets/d/query", ""
		switch route % 4 {
		case 1:
			path = "/v1/datasets/d/join"
		case 2:
			path, accept = "/v1/datasets/d/join", api.NDJSONContentType
		case 3:
			method, path = http.MethodPatch, "/v1/datasets/d"
		}
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("%s %s %q: %d %s", method, path, body, rec.Code, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK {
			return
		}
		strict := func(raw []byte, into any) {
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.DisallowUnknownFields()
			if err := dec.Decode(into); err != nil {
				t.Fatalf("%s %s %q: 200 body %.200s does not decode: %v", method, path, body, raw, err)
			}
		}
		switch route % 4 {
		case 0:
			strict(rec.Body.Bytes(), &api.QueryResponse{})
		case 1:
			strict(rec.Body.Bytes(), &api.JoinResponse{})
		case 3:
			strict(rec.Body.Bytes(), &api.UpdateResponse{})
		case 2:
			if ct := rec.Header().Get("Content-Type"); ct != api.NDJSONContentType {
				strict(rec.Body.Bytes(), &api.JoinResponse{}) // count_only stays buffered
				return
			}
			sc := bufio.NewScanner(rec.Body)
			lines := 0
			var trailer struct{ Count int }
			for sc.Scan() {
				line := sc.Bytes()
				if strings.HasPrefix(string(line), "{") {
					strict(line, &trailer)
					if trailer.Count != lines {
						t.Fatalf("%q: trailer counts %d, stream carried %d", body, trailer.Count, lines)
					}
					continue
				}
				var pair [2]touch.ID
				strict(line, &pair)
				lines++
			}
		}
	})
}
