// Package faultinject is a deterministic fault-injection harness for the
// serving stack. Production code calls Fire(point) at named injection
// points; an Injector armed with a schedule decides — by exact hit count,
// so runs are reproducible — whether that hit should fault. A nil
// *Injector is inert and free, so the hooks can stay compiled into the
// serving path.
//
// Points wired into internal/serve:
//
//	worker.panic  — panic inside an spmv worker goroutine (engine poison)
//	flush.panic   — panic in the scheduler flush, outside the engine
//	flush.nan     — corrupt one flushed payload with NaN
//	flush.slow    — stall a flush by the configured delay
//	build.fail    — fail an engine (re)build in the pool
package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Rule arms one injection point: hits number Nth, Nth+1, …, Nth+Count-1
// (1-based) fire. Count <= 0 means 1.
type Rule struct {
	Point string
	Nth   int
	Count int
}

// Injector counts hits per point and fires according to its rules. All
// methods are safe for concurrent use and nil-safe, so call sites need no
// guards.
type Injector struct {
	mu    sync.Mutex
	rules map[string][]Rule
	hits  map[string]int
	fired map[string]int
}

// New builds an injector from a set of rules.
func New(rules ...Rule) *Injector {
	inj := &Injector{
		rules: make(map[string][]Rule),
		hits:  make(map[string]int),
		fired: make(map[string]int),
	}
	for _, r := range rules {
		if r.Count <= 0 {
			r.Count = 1
		}
		inj.rules[r.Point] = append(inj.rules[r.Point], r)
	}
	return inj
}

// ParseSchedule parses a schedule written as comma-separated
// point@nth[xcount] entries, e.g. "worker.panic@40,build.fail@2x3".
func ParseSchedule(s string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		point, spec, ok := strings.Cut(part, "@")
		if !ok || point == "" {
			return nil, fmt.Errorf("faultinject: %q is not point@nth[xcount]", part)
		}
		nthS, cntS, hasCount := strings.Cut(spec, "x")
		nth, err := strconv.Atoi(nthS)
		if err != nil || nth < 1 {
			return nil, fmt.Errorf("faultinject: bad hit number in %q", part)
		}
		count := 1
		if hasCount {
			count, err = strconv.Atoi(cntS)
			if err != nil || count < 1 {
				return nil, fmt.Errorf("faultinject: bad count in %q", part)
			}
		}
		rules = append(rules, Rule{Point: point, Nth: nth, Count: count})
	}
	return rules, nil
}

// Fire records one hit of point and reports whether it should fault.
// A nil injector never fires.
func (inj *Injector) Fire(point string) bool {
	if inj == nil {
		return false
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.hits[point]++
	n := inj.hits[point]
	for _, r := range inj.rules[point] {
		if n >= r.Nth && n < r.Nth+r.Count {
			inj.fired[point]++
			return true
		}
	}
	return false
}

// Hits reports how many times point has been reached.
func (inj *Injector) Hits(point string) int {
	if inj == nil {
		return 0
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.hits[point]
}

// Fired reports how many hits of point actually faulted.
func (inj *Injector) Fired(point string) int {
	if inj == nil {
		return 0
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.fired[point]
}
