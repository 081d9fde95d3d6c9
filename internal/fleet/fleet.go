package fleet

// Options tunes a fleet run without affecting its results.
type Options struct {
	// Workers sets the profiling pool width (≤ 0: matrix default).
	// Profiling is the only parallel phase; the report is byte-
	// identical at any width.
	Workers int
}

// MigRecord is one migration's outcome, exposed for tests and traces.
// All times are virtual ns from simulation start.
type MigRecord struct {
	ArriveNS   int64
	AdmitNS    int64
	DoneNS     int64
	UserNS     int64
	WaitNS     int64
	Class      int32
	User       int32
	App        string
	Superseded bool
}

// Result pairs the deterministic report with per-migration records.
type Result struct {
	Report *Report
	Migs   []MigRecord
	sim    *Sim
}

// Sim returns the underlying engine (profiling tables, stage graphs) —
// test hooks, not part of the stable surface.
func (r *Result) Sim() *Sim { return r.sim }

// Run builds a Sim for the spec, drives it to completion, and returns
// the report plus per-migration records. Callers that re-run one spec
// keep the Sim from NewSim and Reset it instead.
func Run(spec Spec, opts Options) (*Result, error) {
	s, err := NewSim(spec, opts.Workers)
	if err != nil {
		return nil, err
	}
	s.Run()
	res := &Result{Report: s.Report(), sim: s}
	res.Migs = make([]MigRecord, len(s.migs))
	for i := range s.migs {
		m := &s.migs[i]
		res.Migs[i] = MigRecord{
			ArriveNS:   m.arriveNS,
			AdmitNS:    m.admitNS,
			DoneNS:     m.doneNS,
			UserNS:     m.userNS,
			WaitNS:     m.waitNS,
			Class:      m.class,
			User:       m.user,
			App:        s.wl.apps[m.app],
			Superseded: m.state == stateSuperseded,
		}
	}
	return res, nil
}
