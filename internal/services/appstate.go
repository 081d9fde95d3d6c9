package services

import (
	"sort"
	"strings"
	"sync"
)

// appSet is a per-app set of strings with canonical rendering, the common
// state shape of the thinner Table 2 services (location subscriptions,
// keyguard disable tokens, NSD registrations, ...). Services embed it by
// value; its zero value is empty, and the outer map is made on the first
// write, so a service no app writes to costs nothing at boot.
type appSet struct {
	mu   sync.Mutex
	sets map[string]map[string]bool // pkg → member → present
}

func (s *appSet) add(pkg, member string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sets == nil {
		s.sets = make(map[string]map[string]bool)
	}
	if s.sets[pkg] == nil {
		s.sets[pkg] = make(map[string]bool)
	}
	s.sets[pkg][member] = true
}

func (s *appSet) remove(pkg, member string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.sets[pkg], member)
}

func (s *appSet) has(pkg, member string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sets[pkg][member]
}

func (s *appSet) members(pkg string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.sets[pkg]))
	for m := range s.sets[pkg] {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

func (s *appSet) render(pkg string) string {
	return strings.Join(s.members(pkg), ";")
}

func (s *appSet) forget(pkg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.sets, pkg)
}

// appKV is per-app key→value state with the same canonicalization role,
// embedded by value and made on first write like appSet.
type appKV struct {
	mu   sync.Mutex
	vals map[string]map[string]string
}

func (s *appKV) set(pkg, key, val string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.vals == nil {
		s.vals = make(map[string]map[string]string)
	}
	if s.vals[pkg] == nil {
		s.vals[pkg] = make(map[string]string)
	}
	s.vals[pkg][key] = val
}

func (s *appKV) del(pkg, key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.vals[pkg], key)
}

func (s *appKV) get(pkg, key string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vals[pkg][key]
}

func (s *appKV) snapshot(pkg string) map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.vals[pkg]))
	for k, v := range s.vals[pkg] {
		out[k] = v
	}
	return out
}

func (s *appKV) forget(pkg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.vals, pkg)
}
