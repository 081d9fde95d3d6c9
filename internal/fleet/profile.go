package fleet

import (
	"fmt"

	"flux/internal/apps"
	"flux/internal/device"
	"flux/internal/experiments"
	"flux/internal/migration"
	"flux/internal/netsim"
)

// Device roles. Each user's devices cycle phone → tablet → TV; the
// TV stand-in is the Nexus 7 (2012) — the paper's congested-band
// device, which is exactly the behaviour a living-room box on 2.4 GHz
// exhibits.
const (
	rolePhone = iota
	roleTablet
	roleTV
	numRoles
)

// modelProfile returns the device.Profile constructor for a role.
func modelProfile(role int8) func(string) device.Profile {
	switch role {
	case roleTablet:
		return device.Nexus7_2013
	case roleTV:
		return device.Nexus7_2012
	}
	return device.Nexus4
}

// modelName names a role's hardware for reports.
func modelName(role int8) string {
	switch role {
	case roleTablet:
		return "Nexus 7 (2013)"
	case roleTV:
		return "Nexus 7 (2012)"
	}
	return "Nexus 4"
}

// modelRadio returns a role's radio (the link model keys on it).
func modelRadio(role int8) netsim.Radio {
	return modelProfile(role)("probe").Radio
}

// profiles holds one measured migration per (source model, destination
// model, app) equivalence class. Every simulated migration in that
// class replays the measured stage graph, so a 1-pair fleet reproduces
// Migrator.Migrate's timings and bytes exactly — by construction, not
// by curve fit.
type profiles struct {
	nApps  int
	graphs []migration.StageGraph // indexed by profIdx; nil Nodes = not profiled
	reps   []*migration.Report
}

// profIdx flattens (srcRole, dstRole, app) into the profile table.
func profIdx(src, dst int8, app int32, nApps int) int32 {
	return (int32(src)*numRoles+int32(dst))*int32(nApps) + app
}

// rolesInUse lists the device roles a fleet of devicesPerUser actually
// instantiates (roles cycle mod 3).
func rolesInUse(devicesPerUser int) []int8 {
	n := devicesPerUser
	if n > numRoles {
		n = numRoles
	}
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(i)
	}
	return out
}

// buildProfiles measures one real migration per reachable class on a
// workers-wide experiments.ForEach pool: jobs are indexed, results land
// by index, and the first error in job order wins — so the profile
// table (and everything downstream of it) is byte-identical at any
// width.
func buildProfiles(spec *Spec, w *workload, workers int) (*profiles, error) {
	roles := rolesInUse(spec.DevicesPerUser)
	p := &profiles{
		nApps:  len(w.apps),
		graphs: make([]migration.StageGraph, numRoles*numRoles*len(w.apps)),
		reps:   make([]*migration.Report, numRoles*numRoles*len(w.apps)),
	}
	type job struct {
		idx      int32
		src, dst int8
		app      int32
	}
	var jobs []job
	for _, src := range roles {
		for _, dst := range roles {
			if src == dst && spec.DevicesPerUser <= numRoles {
				// Same-model hops need two same-role devices; a ≤3-device
				// user never has them.
				continue
			}
			for app := range w.apps {
				jobs = append(jobs, job{idx: profIdx(src, dst, int32(app), p.nApps), src: src, dst: dst, app: int32(app)})
			}
		}
	}
	if workers < 1 {
		workers = experiments.DefaultMatrixWorkers()
	}
	err := experiments.ForEach(workers, len(jobs), func(ji int) error {
		j := jobs[ji]
		a := apps.ByPackage(w.apps[j.app])
		if a == nil {
			return fmt.Errorf("fleet: unknown app %q", w.apps[j.app])
		}
		pair := experiments.Pair{
			Name:  modelName(j.src) + " to " + modelName(j.dst),
			Home:  modelProfile(j.src),
			Guest: modelProfile(j.dst),
		}
		rep, err := experiments.RunOneOpts(pair, *a, migration.Options{})
		if err != nil {
			return fmt.Errorf("fleet: profiling %s / %s: %w", a.Spec.Label, pair.Name, err)
		}
		p.graphs[j.idx] = migration.Graph(rep)
		p.reps[j.idx] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}
