package faultinject

import "testing"

// FuzzFaultSchedule fuzzes the schedule grammar, which arrives from a
// flag or an environment variable: Parse must never panic, and every
// schedule it accepts must be one the sites can actually execute — at
// least one rule, each naming a known site and an action that site
// allows, with a probability in (0,1], a torn fraction (if any) in
// (0,1) and, for a hang, a positive duration.
//
// CI runs this as a short -fuzztime smoke (make fuzz); the seed corpus
// below always runs under plain `go test`.
func FuzzFaultSchedule(f *testing.F) {
	for _, spec := range []string{
		"", ";", "seed=7", "seed=7;handler:panic#1",
		"seed=101;handler:panic#1;store.read:err@0.4#4;build:hang:200ms@0.5#2",
		"seed=202;store.write:torn#1;store.fsync:err#1",
		"store.write:torn:0.5", "transport:hang:300ms@0.5#4;transport:http500@0.25#3",
		"fetch.request:err@0.5#3", "fetch.body:corrupt", "transport:reset@0.2#3",
		"build:hang", "build:hang:0s", "build:hang:-1s", "build:err@0", "build:err@1.5",
		"build:err@NaN", "store.write:torn:NaN", "store.write:torn:1", "build:err#0", "build:err#-1", "handler:err", "nosuch:err",
		"store.read:err:extra", "seed=x;build:err", "build", ":", "@#", "a:b:c:d@0.1#2",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		inj, err := Parse(spec)
		if err != nil {
			if inj != nil {
				t.Fatalf("Parse(%q) returned an injector with error %v", spec, err)
			}
			return
		}
		if len(inj.rules) == 0 {
			t.Fatalf("Parse(%q) accepted a schedule with no rules", spec)
		}
		for _, r := range inj.rules {
			allowed, ok := actionsBySite[r.site]
			if !ok {
				t.Fatalf("Parse(%q): rule names unknown site %q", spec, r.site)
			}
			if !containsAction(allowed, r.action) {
				t.Fatalf("Parse(%q): action %v not allowed at site %q", spec, r.action, r.site)
			}
			if !(r.prob > 0 && r.prob <= 1) {
				t.Fatalf("Parse(%q): rule probability %v outside (0,1]", spec, r.prob)
			}
			if r.action == ActHang && r.dur <= 0 {
				t.Fatalf("Parse(%q): hang rule with duration %v", spec, r.dur)
			}
			if r.frac != 0 && !(r.frac > 0 && r.frac < 1) {
				t.Fatalf("Parse(%q): torn fraction %v outside (0,1)", spec, r.frac)
			}
			if r.max < 0 {
				t.Fatalf("Parse(%q): negative fire cap %d", spec, r.max)
			}
		}
		// Every rule is reachable from its site's index exactly once.
		total := 0
		for _, rs := range inj.bySit {
			total += len(rs)
		}
		if total != len(inj.rules) {
			t.Fatalf("Parse(%q): %d rules but %d indexed by site", spec, len(inj.rules), total)
		}
	})
}
