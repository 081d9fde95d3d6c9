package services

import (
	"fmt"
	"sort"
	"sync"

	"flux/internal/aidl"
	"flux/internal/binder"
	"flux/internal/kernel"
)

// SensorAIDL is the SensorService interface (paper §3.2's third example).
// createSensorEventConnection returns a Binder object whose handle — and
// whose event-channel socket descriptor — must survive migration unchanged,
// which is why both carry @replayproxy decorations.
const SensorAIDL = `
interface ISensorServer {
    @record {
        @replayproxy flux.recordreplay.Proxies.sensorCreateConnection;
    }
    IBinder createSensorEventConnection(String packageName);

    int getSensorList();
}
`

// SensorConnectionAIDL is the per-connection interface.
const SensorConnectionAIDL = `
interface ISensorEventConnection {
    @record {
        @drop this;
        @if sensor;
    }
    void enableSensor(int sensor, boolean enabled, int samplingPeriodUs);

    @record {
        @replayproxy flux.recordreplay.Proxies.sensorGetChannel;
    }
    ParcelFileDescriptor getSensorChannel();

    void destroy();
}
`

var (
	// SensorInterface is the compiled ISensorServer.
	SensorInterface = aidl.MustParse(SensorAIDL)
	// SensorConnectionInterface is the compiled ISensorEventConnection.
	SensorConnectionInterface = aidl.MustParse(SensorConnectionAIDL)
)

// Sensor ids exposed by every simulated device.
const (
	SensorAccelerometer int32 = 1
	SensorGyroscope     int32 = 2
	SensorMagnetometer  int32 = 3
	SensorLight         int32 = 4
)

// SensorService hands out SensorEventConnections.
type SensorService struct {
	sys *System

	mu       sync.Mutex
	nextConn int
	conns    map[string][]*SensorEventConnection // pkg → connections
}

// SensorEventConnection is one app's event channel to the sensors.
type SensorEventConnection struct {
	svc  *SensorService
	pkg  string
	id   int
	node *binder.Node

	mu        sync.Mutex
	enabled   map[int32]int32 // sensor → sampling period µs
	channelFD int             // fd in the app's table; 0 until requested
	destroyed bool
}

func newSensorService(s *System) *SensorService {
	sv := &SensorService{sys: s, nextConn: 1, conns: make(map[string][]*SensorEventConnection)}
	disp := aidl.NewDispatcher(SensorInterface).
		Handle("createSensorEventConnection", sv.createConnection).
		Handle("getSensorList", func(call *binder.Call, args aidl.Args) error {
			call.Reply.WriteInt32(4)
			return nil
		})
	s.register("sensorservice", SensorInterface, disp, sv)
	if s.cfg.Recorder != nil {
		// Connection objects are not in the ServiceManager; register their
		// interface under a synthetic name so their calls are recordable.
		s.cfg.Recorder.RegisterInterface("sensorservice.connection", SensorConnectionInterface)
	}
	return sv
}

func (sv *SensorService) createConnection(call *binder.Call, args aidl.Args) error {
	pkg, err := sv.sys.callerPkg(call)
	if err != nil {
		return err
	}
	conn, err := sv.NewConnection(pkg)
	if err != nil {
		return err
	}
	h, err := sv.sys.Proc().Binder().Ref(conn.node)
	if err != nil {
		return err
	}
	call.Reply.WriteHandle(h) // driver translates into the caller's space
	return nil
}

// NewConnection publishes a fresh SensorEventConnection node for pkg.
// Exported for the adaptive replay proxy.
func (sv *SensorService) NewConnection(pkg string) (*SensorEventConnection, error) {
	sv.mu.Lock()
	id := sv.nextConn
	sv.nextConn++
	sv.mu.Unlock()

	conn := &SensorEventConnection{svc: sv, pkg: pkg, id: id, enabled: make(map[int32]int32)}
	disp := aidl.NewDispatcher(SensorConnectionInterface).
		Handle("enableSensor", conn.enableSensor).
		Handle("getSensorChannel", conn.getSensorChannel).
		Handle("destroy", conn.destroy)
	node, err := sv.sys.Proc().Binder().Publish(SensorConnectionInterface.Name, disp)
	if err != nil {
		return nil, err
	}
	conn.node = node
	sv.mu.Lock()
	sv.conns[pkg] = append(sv.conns[pkg], conn)
	sv.mu.Unlock()
	return conn, nil
}

// Node returns the connection's Binder node.
func (c *SensorEventConnection) Node() *binder.Node { return c.node }

// ID returns the connection's service-local id.
func (c *SensorEventConnection) ID() int { return c.id }

func (c *SensorEventConnection) enableSensor(call *binder.Call, args aidl.Args) error {
	sensor := args.Int(0)
	enabled := args.Bool(1)
	period := args.Int(2)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.destroyed {
		return fmt.Errorf("services: enableSensor on destroyed connection %d", c.id)
	}
	if enabled {
		c.enabled[sensor] = period
	} else {
		delete(c.enabled, sensor)
	}
	return nil
}

func (c *SensorEventConnection) getSensorChannel(call *binder.Call, args aidl.Args) error {
	proc := c.svc.sys.Kernel().Process(call.CallingPID)
	if proc == nil {
		return fmt.Errorf("services: getSensorChannel from unknown pid %d", call.CallingPID)
	}
	fd, err := c.OpenChannel(proc)
	if err != nil {
		return err
	}
	call.Reply.WriteFD(fd)
	return nil
}

// OpenChannel creates the connection's event socket in proc's fd table and
// returns the descriptor number. Exported for the replay proxy, which dup2s
// the fresh descriptor onto the number the app held before migration.
func (c *SensorEventConnection) OpenChannel(proc *kernel.Process) (int, error) {
	fd, err := proc.OpenFD(kernel.FDUnixSocket, fmt.Sprintf("sensor-events:%d", c.id))
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.channelFD = fd
	c.mu.Unlock()
	return fd, nil
}

// SetChannelFD records the app-side descriptor number after a dup2.
func (c *SensorEventConnection) SetChannelFD(fd int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.channelFD = fd
}

// ChannelFD returns the app-side descriptor number, 0 if never opened.
func (c *SensorEventConnection) ChannelFD() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.channelFD
}

// EnabledSensors returns the sensors enabled on this connection, sorted.
func (c *SensorEventConnection) EnabledSensors() []int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int32, 0, len(c.enabled))
	for s := range c.enabled {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (c *SensorEventConnection) destroy(call *binder.Call, args aidl.Args) error {
	c.mu.Lock()
	c.destroyed = true
	c.enabled = make(map[int32]int32)
	c.mu.Unlock()
	return nil
}

// Connections returns an app's live connections.
func (sv *SensorService) Connections(pkg string) []*SensorEventConnection {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	var out []*SensorEventConnection
	for _, c := range sv.conns[pkg] {
		c.mu.Lock()
		dead := c.destroyed
		c.mu.Unlock()
		if !dead {
			out = append(out, c)
		}
	}
	return out
}

// AppState implements AppStater. Handles and descriptor numbers are
// process-local, so the canonical state is the multiset of enabled sensors
// across live connections.
func (sv *SensorService) AppState(pkg string) map[string]string {
	out := make(map[string]string)
	conns := sv.Connections(pkg)
	if len(conns) == 0 {
		return out
	}
	out["connections"] = fmt.Sprintf("%d", len(conns))
	var sensors []int32
	for _, c := range conns {
		sensors = append(sensors, c.EnabledSensors()...)
	}
	sort.Slice(sensors, func(i, j int) bool { return sensors[i] < sensors[j] })
	key := ""
	for _, s := range sensors {
		key += fmt.Sprintf("%d,", s)
	}
	out["enabled"] = key
	return out
}

// ForgetApp implements AppStater.
func (sv *SensorService) ForgetApp(pkg string) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	delete(sv.conns, pkg)
}
