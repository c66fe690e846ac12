package api

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"touch"
)

// declaredCodes parses errors.go for every Code* constant, so a code
// added without a row in statuses fails TestEveryCodeHasAStatus instead
// of silently answering 502.
func declaredCodes(t *testing.T) map[string]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "errors.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	codes := make(map[string]string)
	for _, decl := range f.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.CONST {
			continue
		}
		for _, spec := range gen.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "Code") {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok {
					t.Fatalf("%s is not a string literal", name.Name)
				}
				value, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				codes[name.Name] = value
			}
		}
	}
	return codes
}

func TestEveryCodeHasAStatus(t *testing.T) {
	codes := declaredCodes(t)
	if len(codes) < 20 {
		t.Fatalf("found only %d Code* constants in errors.go: %v", len(codes), codes)
	}
	for name, code := range codes {
		status, ok := statuses[code]
		if !ok {
			t.Errorf("%s (%q) has no row in statuses", name, code)
		}
		if status < 400 || status > 599 {
			t.Errorf("%s (%q) maps to status %d", name, code, status)
		}
	}
	if len(statuses) != len(codes) {
		t.Errorf("statuses has %d rows for %d declared codes", len(statuses), len(codes))
	}
	if got := Status("code_from_a_newer_backend"); got != 502 {
		t.Errorf("unknown code: status %d, want 502", got)
	}
}

// TestRowParsing: every row helper rejects a wrong arity itself, and a
// NaN coordinate is rejected — by the engine or dataset check the row
// is handed to, mapped through EngineError — with the code the server
// answers.
func TestRowParsing(t *testing.T) {
	nan := math.NaN()
	ix := touch.BuildIndex(touch.GenerateUniform(10, 1), touch.TOUCHConfig{})
	run := func(q Query) error {
		var err error
		switch q.Type {
		case TypeRange:
			_, err = ix.RangeQuery(q.Box)
		case TypePoint:
			_, err = ix.PointQuery(q.Point[0], q.Point[1], q.Point[2])
		default:
			_, err = ix.KNN(q.Point, q.K)
		}
		return err
	}
	queries := []struct {
		name string
		req  QueryRequest
		code string // "" = answered
	}{
		{"range", QueryRequest{Type: "range", Box: []float64{0, 0, 0, 9, 9, 9}}, ""},
		{"range short", QueryRequest{Type: "range", Box: []float64{0, 0, 0, 9, 9}}, CodeInvalidBox},
		{"range long", QueryRequest{Type: "range", Box: make([]float64, 7)}, CodeInvalidBox},
		{"range nan", QueryRequest{Type: "range", Box: []float64{0, nan, 0, 9, 9, 9}}, CodeInvalidBox},
		{"range inverted", QueryRequest{Type: "range", Box: []float64{9, 0, 0, 1, 9, 9}}, CodeInvalidBox},
		{"point", QueryRequest{Type: "point", Point: []float64{1, 2, 3}}, ""},
		{"point short", QueryRequest{Type: "point", Point: []float64{1, 2}}, CodeInvalidPoint},
		{"point nan", QueryRequest{Type: "point", Point: []float64{1, 2, nan}}, CodeInvalidPoint},
		{"knn", QueryRequest{Type: "knn", Point: []float64{1, 2, 3}, K: 2}, ""},
		{"knn long", QueryRequest{Type: "knn", Point: make([]float64, 4), K: 2}, CodeInvalidPoint},
		{"knn nan", QueryRequest{Type: "knn", Point: []float64{nan, 2, 3}, K: 2}, CodeInvalidPoint},
		{"knn k=0", QueryRequest{Type: "knn", Point: []float64{1, 2, 3}}, CodeInvalidK},
		{"unknown type", QueryRequest{Type: "nearest"}, CodeBadRequest},
	}
	for _, tc := range queries {
		q, e := tc.req.Query()
		if e == nil {
			if err := run(q); err != nil {
				e = EngineError(err)
			}
		}
		if got := codeOf(e); got != tc.code {
			t.Errorf("query %s: code %q, want %q", tc.name, got, tc.code)
		}
	}

	rows := []struct {
		name string
		rows [][]float64
		code string
	}{
		{"ok", [][]float64{{0, 0, 0, 1, 1, 1}, {2, 2, 2, 3, 3, 3}}, ""},
		{"empty", [][]float64{}, ""},
		{"short row", [][]float64{{0, 0, 0, 1, 1, 1}, {1, 2, 3}}, CodeInvalidBox},
		{"long row", [][]float64{make([]float64, 7)}, CodeInvalidBox},
		{"nan", [][]float64{{0, 0, nan, 1, 1, 1}}, CodeInvalidBox},
		{"inf", [][]float64{{0, 0, 0, 1, math.Inf(1), 1}}, CodeInvalidBox},
		{"inverted", [][]float64{{5, 0, 0, 1, 1, 1}}, CodeInvalidBox},
	}
	for _, tc := range rows {
		boxes, e := Boxes("box", tc.rows)
		if e == nil {
			if boxes == nil {
				t.Errorf("boxes %s: nil result without an error", tc.name)
			}
			if _, err := touch.DatasetFromBoxes(boxes); err != nil {
				e = EngineError(err)
			}
		}
		if got := codeOf(e); got != tc.code {
			t.Errorf("boxes %s: code %q, want %q", tc.name, got, tc.code)
		}
	}

	probes := []struct {
		name   string
		req    JoinRequest
		code   string
		inline bool
	}{
		{"inline", JoinRequest{Boxes: [][]float64{{0, 0, 0, 1, 1, 1}}}, "", true},
		{"inline empty", JoinRequest{Boxes: [][]float64{}}, "", true},
		{"named", JoinRequest{Probe: "p"}, "", false},
		{"both", JoinRequest{Probe: "p", Boxes: [][]float64{}}, CodeBadRequest, false},
		{"neither", JoinRequest{}, CodeBadRequest, false},
		{"short row", JoinRequest{Boxes: [][]float64{{1}}}, CodeInvalidBox, false},
	}
	for _, tc := range probes {
		boxes, e := tc.req.ProbeBoxes()
		if got := codeOf(e); got != tc.code || (boxes != nil) != tc.inline {
			t.Errorf("probe %s: code %q inline %v, want %q %v", tc.name, got, boxes != nil, tc.code, tc.inline)
		}
	}
}

func codeOf(e *Error) string {
	if e == nil {
		return ""
	}
	return e.Code
}

func TestValidDatasetName(t *testing.T) {
	for name, want := range map[string]bool{
		"a":                      true,
		"cells.v2_final-1":       true,
		strings.Repeat("x", 128): true,
		"":                       false,
		strings.Repeat("x", 129): false,
		"bad name":               false,
		"bad/name":               false,
		"naïve":                  false,
		"semi;colon":             false,
	} {
		if got := ValidDatasetName(name); got != want {
			t.Errorf("ValidDatasetName(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestDecodeBody: one document, nothing after it, and an over-cap body
// is a 413 rather than a truncated-JSON 400 — for every front that
// decodes through here, whatever its cap.
func TestDecodeBody(t *testing.T) {
	const limit = 64
	for _, tc := range []struct {
		name, body string
		code       string
		message    string
	}{
		{"ok", `{"type":"knn","k":3}`, "", ""},
		{"trailing whitespace", `{"type":"knn"}` + "\n  ", "", ""},
		{"trailing data", `{"type":"knn"} x`, CodeBadRequest,
			"decoding request: request body has trailing data after the JSON document"},
		{"second document", `{"type":"knn"}{}`, CodeBadRequest,
			"decoding request: request body has trailing data after the JSON document"},
		{"truncated", `{"type":"kn`, CodeBadRequest, "decoding request: unexpected EOF"},
		{"over cap", `{"type":"` + strings.Repeat("x", limit) + `"}`, CodeBodyTooLarge,
			"request body exceeds the 64-byte cap"},
	} {
		var req QueryRequest
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(tc.body))
		e := DecodeBody(rec, r, limit, &req)
		if codeOf(e) != tc.code || (e != nil && e.Message != tc.message) {
			t.Errorf("%s: got %+v, want code %q message %q", tc.name, e, tc.code, tc.message)
		}
	}
	rec := httptest.NewRecorder()
	WriteError(rec, Errorf(CodeBodyTooLarge, "too big"))
	if rec.Code != http.StatusRequestEntityTooLarge ||
		rec.Body.String() != `{"error":{"code":"body_too_large","message":"too big"}}`+"\n" {
		t.Errorf("WriteError: %d %q", rec.Code, rec.Body.String())
	}
}
