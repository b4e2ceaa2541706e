package api

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// FuzzSelectRequest fuzzes the select body every serving path accepts
// from the network. Bytes that decode as JSON go through the contract's
// two gates exactly as the handler and the Dispatcher run them: nothing
// panics, every rejection is ErrBadRequest, Normalize rejects exactly the
// requests whose options Validate rejects (and such a request never
// passes the request-level Validate), and an accepted request survives a
// marshal/unmarshal round trip unchanged, with the same canonical
// strategy.
//
// CI runs this as a short -fuzztime smoke (make fuzz); the seed corpus
// below always runs under plain `go test`.
func FuzzSelectRequest(f *testing.F) {
	for _, body := range []string{
		`{"task":"nlp","targets":["tweet_eval"]}`,
		`{"task":"nlp","targets":["tweet_eval","super_glue/boolq"],"strategy":"sh","seed":7}`,
		`{"task":"cv","targets":["cifar10"],"strategy":"ensemble","ensemble_k":2,"workers":4}`,
		`{"task":"nlp","targets":["tweet_eval"],"strategy":"lsq","max_epochs":0}`,
		`{"task":"nlp","targets":["tweet_eval"],"deadline_ms":50,"prefilter_top_k":8}`,
		`{"task":"nlp","targets":["tweet_eval"],"strategy":"TWO-PHASE"}`,
		`{"task":"nlp","targets":["tweet_eval"],"strategy":"nope"}`,
		`{"task":"nlp","targets":[""]}`,
		`{"task":"","targets":["t"]}`,
		`{"task":"nlp","targets":[]}`,
		`{"task":"nlp","targets":["t"],"max_epochs":-1}`,
		`{"task":"nlp","targets":["t"],"workers":-1,"deadline_ms":-5}`,
		`{"task":"nlp","targets":["t"],"seed":null,"max_epochs":null}`,
		`{"task":"nélp <&>","targets":["a\ud800b"]}`,
		`{}`, `null`, `[]`, `{"targets":"x"}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SelectRequest
		if json.Unmarshal(body, &req) != nil {
			return // the handler rejects undecodable bodies before either gate
		}
		verr := req.Validate()
		strat, nerr := req.Normalize()
		for _, err := range []error{verr, nerr} {
			if err != nil && !errors.Is(err, ErrBadRequest) {
				t.Fatalf("%s: rejection %v is not ErrBadRequest", body, err)
			}
		}
		if oerr := req.SelectOptions.Validate(); (oerr != nil) != (nerr != nil) {
			t.Fatalf("%s: options Validate = %v but Normalize = %v", body, oerr, nerr)
		}
		if nerr != nil && verr == nil {
			t.Fatalf("%s: Normalize rejected (%v) a request Validate accepted", body, nerr)
		}
		if verr != nil {
			return
		}
		data, err := json.Marshal(&req)
		if err != nil {
			t.Fatalf("%s: accepted request does not marshal: %v", body, err)
		}
		var back SelectRequest
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: re-decode of %s: %v", body, data, err)
		}
		if !reflect.DeepEqual(back, req) {
			t.Fatalf("%s: round trip changed the request:\n%+v\nvs\n%+v", body, back, req)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("%s: round-tripped request rejected: %v", body, err)
		}
		if got, err := back.Normalize(); err != nil || got != strat {
			t.Fatalf("%s: round-tripped strategy %q (%v), want %q", body, got, err, strat)
		}
	})
}
