package api

import (
	"errors"
	"fmt"
	"net/http"

	"touch"
)

// Error codes carried in the JSON error body and in wire error frames.
// Every non-2xx response has the shape
// {"error":{"code":"...","message":"..."}} so clients can branch on
// machine-readable codes instead of message text. Every code declared
// here needs a row in statuses (the package test enforces it).
const (
	CodeBadRequest     = "bad_request"      // malformed JSON, missing fields
	CodeInvalidBox     = "invalid_box"      // NaN/Inf/inverted box coordinates
	CodeInvalidPoint   = "invalid_point"    // NaN point coordinates
	CodeInvalidK       = "invalid_k"        // kNN k < 1
	CodeInvalidEps     = "invalid_eps"      // negative join distance
	CodeInvalidName    = "invalid_name"     // dataset name outside [A-Za-z0-9._-]
	CodeUnknownDataset = "unknown_dataset"  // no catalog entry with that name
	CodeBuilding       = "building"         // first index version not ready yet
	CodeBodyTooLarge   = "body_too_large"   // request body over the cap
	CodeResultTooLarge = "result_too_large" // join pair set over MaxJoinPairs
	CodeUnsupported    = "unsupported_type" // content type not JSON or text
	CodeOverload       = "overload"         // admission: too many in-flight
	CodeTimeout        = "timeout"          // request exceeded its budget
	CodeClientClosed   = "client_closed"    // client disconnected mid-request
	CodeDraining       = "draining"         // graceful shutdown in progress
	CodeNotFound       = "not_found"        // unknown route
	CodeMethod         = "method_not_allowed"
	CodeIDExhausted    = "id_space_exhausted" // PATCH insert would overflow object IDs
	CodeInternal       = "internal"
	// Router-only codes.
	CodeNoBackend   = "no_backend"   // every ring owner for the dataset was unreachable
	CodeNotRoutable = "not_routable" // exists on backends but is not proxied (load, delete)
)

// StatusClientClosed is nginx's non-standard 499 "client closed
// request" — recorded so disconnects are distinguishable from server
// errors in responses_total.
const StatusClientClosed = 499

// statuses is the one code → HTTP status table. The status doubles as
// the metrics classification of a wire request, and lets the router
// give a proxied wire error the status the backend's own HTTP front
// would have used.
var statuses = map[string]int{
	CodeBadRequest:     http.StatusBadRequest,
	CodeInvalidBox:     http.StatusBadRequest,
	CodeInvalidPoint:   http.StatusBadRequest,
	CodeInvalidK:       http.StatusBadRequest,
	CodeInvalidEps:     http.StatusBadRequest,
	CodeInvalidName:    http.StatusBadRequest,
	CodeUnknownDataset: http.StatusNotFound,
	CodeNotFound:       http.StatusNotFound,
	CodeMethod:         http.StatusMethodNotAllowed,
	CodeBodyTooLarge:   http.StatusRequestEntityTooLarge,
	CodeUnsupported:    http.StatusUnsupportedMediaType,
	CodeResultTooLarge: http.StatusUnprocessableEntity,
	CodeIDExhausted:    http.StatusUnprocessableEntity,
	CodeOverload:       http.StatusTooManyRequests,
	CodeBuilding:       http.StatusServiceUnavailable,
	CodeTimeout:        http.StatusServiceUnavailable,
	CodeDraining:       http.StatusServiceUnavailable,
	CodeClientClosed:   StatusClientClosed,
	CodeInternal:       http.StatusInternalServerError,
	CodeNoBackend:      http.StatusBadGateway,
	CodeNotRoutable:    http.StatusNotImplemented,
}

// Status returns the HTTP status of an error code. A code outside the
// vocabulary — only a router proxying a newer backend can meet one — is
// a 502.
func Status(code string) int {
	if status, ok := statuses[code]; ok {
		return status
	}
	return http.StatusBadGateway
}

// Error is an error answer before it is bound to a transport: HTTP
// writes it as the JSON error body under Status(), the wire path as an
// error frame.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorBody is the JSON body of every non-2xx response.
type ErrorBody struct {
	Error Error `json:"error"`
}

// Errorf builds an Error with a formatted message.
func Errorf(code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// Status is the HTTP status of the error's code.
func (e *Error) Status() int { return Status(e.Code) }

// DecodeError classifies a failure to read a request: an over-cap body
// (from http.MaxBytesReader), an invalid dataset box in a text load, or
// plain malformed input.
func DecodeError(err error) *Error {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return Errorf(CodeBodyTooLarge, "request body exceeds the %d-byte cap", tooLarge.Limit)
	case errors.Is(err, touch.ErrInvalidBox):
		return Errorf(CodeInvalidBox, "%v", err)
	}
	return Errorf(CodeBadRequest, "decoding request: %v", err)
}

// EngineError maps the touch package's typed validation errors onto the
// code vocabulary. Unknown errors are internal — with validated input
// the engine has no expected failure mode.
func EngineError(err error) *Error {
	code := CodeInternal
	switch {
	case errors.Is(err, touch.ErrInvalidBox):
		code = CodeInvalidBox
	case errors.Is(err, touch.ErrInvalidPoint):
		code = CodeInvalidPoint
	case errors.Is(err, touch.ErrInvalidK):
		code = CodeInvalidK
	case errors.Is(err, touch.ErrNegativeDistance):
		code = CodeInvalidEps
	}
	return Errorf(code, "%v", err)
}
