// Stage-graph extraction of the five-stage Migrate path.
//
// Migrate (migration.go) runs the Figure 4 stages inline, advancing a
// single device pair's clocks as it goes. The fleet simulator
// (internal/fleet) needs the same work as *data*: a sequence of
// schedulable nodes, each with a declared resource (home CPU, guest
// CPU, or the wire) and a virtual duration, so thousands of migrations
// can interleave on one shared event clock without goroutine-per-
// migration overhead. A StageGraph is exactly that — the measured
// Report rendered as a schedule. Durations come from Report.Timings
// verbatim, so replaying a graph serially reproduces the migration's
// timings and bytes bit for bit (tested).
package migration

import "time"

// StageResource names the serial resource a stage node occupies while
// it runs. The fleet engine maps these onto per-device CPUs and per-AP
// radio bands.
type StageResource uint8

const (
	// ResourceHomeCPU is the migration source device's CPU (preparation,
	// checkpoint, compression).
	ResourceHomeCPU StageResource = iota
	// ResourceGuestCPU is the destination device's CPU (restore,
	// reintegration/replay).
	ResourceGuestCPU
	// ResourceWire is the wireless path between the devices through the
	// AP (transfer, negotiation).
	ResourceWire
)

// String names the resource for reports.
func (r StageResource) String() string {
	switch r {
	case ResourceHomeCPU:
		return "home-cpu"
	case ResourceGuestCPU:
		return "guest-cpu"
	case ResourceWire:
		return "wire"
	}
	return "resource(?)"
}

// StageNode is one schedulable unit of a migration: a stage, the
// resource it occupies, how long it holds it, and the bytes it moves
// when it is a wire node.
type StageNode struct {
	Stage    Stage
	Resource StageResource
	Duration time.Duration
	// Bytes is the wire payload of ResourceWire nodes; zero for CPU
	// nodes.
	Bytes int64
}

// StageGraph is a migration rendered as a serial schedule of resource
// occupations. Nodes run strictly in order — node i+1 may start only
// after node i completes — but each waits for its own resource, so
// independent migrations interleave wherever they contend.
type StageGraph struct {
	Nodes []StageNode
	// TransferredBytes mirrors Report.TransferredBytes.
	TransferredBytes int64
}

// Total is the graph's serial makespan absent contention; equals
// Report.Timings.Total() for graphs built by Graph.
func (g StageGraph) Total() time.Duration {
	var sum time.Duration
	for _, n := range g.Nodes {
		sum += n.Duration
	}
	return sum
}

// UserPerceived sums the user-visible stages (transfer onward),
// matching Timings.UserPerceived.
func (g StageGraph) UserPerceived() time.Duration {
	var sum time.Duration
	for _, n := range g.Nodes {
		if n.Stage >= StageTransfer {
			sum += n.Duration
		}
	}
	return sum
}

// Graph renders a measured migration Report as the canonical five-node
// stage graph. Node durations are the Report's Timings entries
// verbatim — no re-pricing — so a serial replay of the graph
// reproduces the migration exactly.
func Graph(rep *Report) StageGraph {
	return StageGraph{
		Nodes: []StageNode{
			{Stage: StagePreparation, Resource: ResourceHomeCPU, Duration: rep.Timings[StagePreparation]},
			{Stage: StageCheckpoint, Resource: ResourceHomeCPU, Duration: rep.Timings[StageCheckpoint]},
			{Stage: StageTransfer, Resource: ResourceWire, Duration: rep.Timings[StageTransfer], Bytes: rep.TransferredBytes},
			{Stage: StageRestore, Resource: ResourceGuestCPU, Duration: rep.Timings[StageRestore]},
			{Stage: StageReintegration, Resource: ResourceGuestCPU, Duration: rep.Timings[StageReintegration]},
		},
		TransferredBytes: rep.TransferredBytes,
	}
}
