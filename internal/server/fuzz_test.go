package server

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeRecommendRequest asserts the HTTP request decoder never
// panics and that every accepted request satisfies the invariants the
// engine relies on: a non-empty group of non-negative users, and
// non-negative K, NumItems, and Period. It mirrors the loader fuzz
// tests in internal/dataset and internal/social.
func FuzzDecodeRecommendRequest(f *testing.F) {
	f.Add(`{"group":[1,5,9],"k":10,"num_items":100}`)
	f.Add(`{"group":[0]}`)
	f.Add(`{"group":[1,2],"consensus":"MO","model":"continuous","period":2}`)
	f.Add(`{}`)
	f.Add(``)
	f.Add(`null`)
	f.Add(`[1,2,3]`)
	f.Add(`{"group":null}`)
	f.Add(`{"group":[-1]}`)
	f.Add(`{"group":[1],"k":-3}`)
	f.Add(`{"group":[1],"num_items":-1}`)
	f.Add(`{"group":[1],"k":1.5}`)
	f.Add(`{"group":[1],"k":9223372036854775807}`)
	f.Add(`{"group":[1],"unknown_field":true}`)
	f.Add(`{"group":[1]} trailing`)
	f.Add(`{"group":[1],"consensus":"XX"}`)
	f.Add(`{"group":[1],"model":""}`)
	f.Add(`{"group":[` + strings.Repeat("1,", 100) + `1]}`)
	f.Add(`{"group":[1],"k":"3"}`)
	f.Add("{\"group\":[1],\x00\"k\":1}")
	// max_wait_ms left the wire with the coalescing window: every
	// spelling of it must be rejected as an unknown field.
	f.Add(`{"group":[1],"max_wait_ms":3}`)
	f.Add(`{"group":[1],"max_wait_ms":0}`)
	f.Add(`{"group":[1],"max_wait_ms":-2}`)
	f.Add(`{"group":[1],"max_wait_ms":2.5}`)
	f.Add(`{"group":[1],"max_wait_ms":9223372036854775807}`)
	f.Fuzz(func(t *testing.T, input string) {
		req, err := decodeRecommendRequest([]byte(input))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if strings.Contains(input, "max_wait_ms") {
			t.Fatalf("accepted a request naming the retired max_wait_ms field: %q", input)
		}
		if len(req.Group) == 0 {
			t.Fatalf("accepted request with empty group: %q", input)
		}
		for _, u := range req.Group {
			if u < 0 {
				t.Fatalf("accepted negative user %d: %q", u, input)
			}
		}
		if req.Options.K < 0 || req.Options.NumItems < 0 || req.Options.Period < 0 {
			t.Fatalf("accepted negative options %+v: %q", req.Options, input)
		}
		// Determinism: decoding the same bytes twice yields the same
		// request (the decoder holds no state).
		again, err := decodeRecommendRequest([]byte(input))
		if err != nil {
			t.Fatalf("second decode of accepted input failed: %v (%q)", err, input)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("decode is not deterministic for %q", input)
		}
	})
}
