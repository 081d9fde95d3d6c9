// Fleet workload specs: the declarative surface of cmd/fluxfleet.
//
// A spec describes a device fleet (users × devices, grouped under
// access points), a migration workload (user classes with Poisson or
// Gamma arrival processes over app mixes, each with an SLO), and the
// control policies (placement, per-AP admission). Specs are written in
// the YAML subset fluxlab uses (internal/yamlite) and hash canonically
// (over their JSON form) so a fleet report can prove which workload
// produced it.
package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"flux/internal/apps"
	"flux/internal/yamlite"
)

// SpecSchemaVersion versions the fleet-spec layout.
const SpecSchemaVersion = 1

// Placement policy names (see policy.go).
const (
	PlacementLeastLoaded    = "least-loaded"
	PlacementBandwidthAware = "bandwidth-aware"
)

// Arrival process names.
const (
	ArrivalPoisson = "poisson"
	ArrivalGamma   = "gamma"
)

// Class is one user class of the workload mix: a share of the total
// migration count, an arrival process, a hop-chain length, an app mix,
// and a user-perceived latency SLO.
type Class struct {
	// Name labels the class in the report.
	Name string `json:"name"`
	// Share is this class's fraction of Spec.Migrations; shares must
	// sum to 1.
	Share float64 `json:"share"`
	// Arrival is the arrival process: poisson (exponential
	// interarrivals) or gamma (Marsaglia-Tsang, burstier than Poisson
	// below shape 1, smoother above).
	Arrival string `json:"arrival"`
	// RatePerMin is the class's aggregate arrival rate across the
	// fleet, in migrations per minute.
	RatePerMin float64 `json:"rate_per_min"`
	// GammaShape is the Gamma arrival shape k (mean fixed by
	// RatePerMin); ignored for poisson. Default 2.
	GammaShape float64 `json:"gamma_shape,omitempty"`
	// SLOMillis is the user-perceived latency objective per migration
	// chain, in milliseconds.
	SLOMillis int `json:"slo_ms"`
	// Hops is the chain length: 1 is a single migration, 2 is
	// phone→tablet→TV style.
	Hops int `json:"hops"`
	// Apps is the package mix; arrivals draw uniformly from it.
	Apps []string `json:"apps"`
}

// Spec is one declarative fleet experiment.
type Spec struct {
	// Schema versions the spec layout.
	Schema int `json:"schema"`
	// Name identifies the workload ("smoke", "scale-10k", ...).
	Name string `json:"name"`
	// Seed drives workload generation; same seed + spec ⇒ byte-
	// identical report at any worker width.
	Seed int64 `json:"seed"`
	// Users is the number of users; each owns DevicesPerUser devices.
	Users int `json:"users"`
	// DevicesPerUser is the per-user device count; roles cycle
	// phone (Nexus 4), tablet (Nexus 7 2013), TV (Nexus 7 2012 as the
	// set-top stand-in).
	DevicesPerUser int `json:"devices_per_user"`
	// UsersPerAP groups users under shared access points; a user's
	// devices all associate with the user's AP.
	UsersPerAP int `json:"users_per_ap"`
	// Migrations is the total migration-request count across classes.
	Migrations int `json:"migrations"`
	// Placement picks the destination device of each hop:
	// least-loaded or bandwidth-aware.
	Placement string `json:"placement"`
	// AdmissionRatePerMin is the per-AP token-bucket refill rate on
	// migration admissions (GCRA); 0 disables rate limiting.
	AdmissionRatePerMin float64 `json:"admission_rate_per_min"`
	// AdmissionBurst is the token-bucket depth. Default 8.
	AdmissionBurst int `json:"admission_burst"`
	// MaxConcurrentPerAP caps simultaneously active migrations per AP;
	// 0 means unlimited.
	MaxConcurrentPerAP int `json:"max_concurrent_per_ap"`
	// Classes is the workload mix.
	Classes []Class `json:"classes"`
}

// DefaultClass returns the class defaults a sparse spec inherits.
func DefaultClass(name string) Class {
	return Class{
		Name:       name,
		Share:      1,
		Arrival:    ArrivalPoisson,
		RatePerMin: 120,
		GammaShape: 2,
		SLOMillis:  12000,
		Hops:       1,
		Apps:       []string{"com.king.candycrushsaga", "com.twitter.android"},
	}
}

// withDefaults fills unset fields so the engine never branches on zero
// values.
func (s Spec) withDefaults() Spec {
	if s.Schema == 0 {
		s.Schema = SpecSchemaVersion
	}
	if s.Users < 1 {
		s.Users = 16
	}
	if s.DevicesPerUser < 1 {
		s.DevicesPerUser = 3
	}
	if s.UsersPerAP < 1 {
		s.UsersPerAP = 8
	}
	if s.Migrations < 1 {
		s.Migrations = 10 * s.Users
	}
	if s.Placement == "" {
		s.Placement = PlacementLeastLoaded
	}
	if s.AdmissionBurst < 1 {
		s.AdmissionBurst = 8
	}
	if len(s.Classes) == 0 {
		s.Classes = []Class{DefaultClass("default")}
	}
	for i := range s.Classes {
		c := &s.Classes[i]
		if c.Arrival == "" {
			c.Arrival = ArrivalPoisson
		}
		if c.RatePerMin <= 0 {
			c.RatePerMin = 120
		}
		if c.GammaShape <= 0 {
			c.GammaShape = 2
		}
		if c.SLOMillis <= 0 {
			c.SLOMillis = 12000
		}
		if c.Hops < 1 {
			c.Hops = 1
		}
		if len(c.Apps) == 0 {
			c.Apps = DefaultClass(c.Name).Apps
		}
		if len(s.Classes) == 1 && c.Share == 0 {
			c.Share = 1
		}
	}
	return s
}

// Validate rejects malformed specs with a message naming the offending
// field.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("fleet: spec needs a name")
	}
	if s.Schema != 0 && s.Schema != SpecSchemaVersion {
		return fmt.Errorf("fleet: spec %s: unsupported schema %d (want %d)", s.Name, s.Schema, SpecSchemaVersion)
	}
	if s.Users < 1 {
		return fmt.Errorf("fleet: spec %s: users %d < 1", s.Name, s.Users)
	}
	if s.DevicesPerUser < 2 {
		return fmt.Errorf("fleet: spec %s: devices_per_user %d needs at least 2 (somewhere to migrate to)", s.Name, s.DevicesPerUser)
	}
	if s.Migrations < 1 {
		return fmt.Errorf("fleet: spec %s: migrations %d < 1", s.Name, s.Migrations)
	}
	switch s.Placement {
	case PlacementLeastLoaded, PlacementBandwidthAware:
	default:
		return fmt.Errorf("fleet: spec %s: unknown placement %q (least-loaded, bandwidth-aware)", s.Name, s.Placement)
	}
	if s.AdmissionRatePerMin < 0 {
		return fmt.Errorf("fleet: spec %s: admission_rate_per_min %g is negative", s.Name, s.AdmissionRatePerMin)
	}
	if s.MaxConcurrentPerAP < 0 {
		return fmt.Errorf("fleet: spec %s: max_concurrent_per_ap %d is negative", s.Name, s.MaxConcurrentPerAP)
	}
	var share float64
	for _, c := range s.Classes {
		if c.Name == "" {
			return fmt.Errorf("fleet: spec %s: class needs a name", s.Name)
		}
		if c.Share <= 0 || c.Share > 1 {
			return fmt.Errorf("fleet: spec %s: class %s share %g out of (0,1]", s.Name, c.Name, c.Share)
		}
		share += c.Share
		switch c.Arrival {
		case ArrivalPoisson, ArrivalGamma:
		default:
			return fmt.Errorf("fleet: spec %s: class %s: unknown arrival %q (poisson, gamma)", s.Name, c.Name, c.Arrival)
		}
		if c.RatePerMin <= 0 {
			return fmt.Errorf("fleet: spec %s: class %s: rate_per_min %g must be positive", s.Name, c.Name, c.RatePerMin)
		}
		if c.Hops < 1 || c.Hops > 8 {
			return fmt.Errorf("fleet: spec %s: class %s: hops %d out of [1,8]", s.Name, c.Name, c.Hops)
		}
		if len(c.Apps) == 0 {
			return fmt.Errorf("fleet: spec %s: class %s: needs at least one app", s.Name, c.Name)
		}
		for _, pkg := range c.Apps {
			a := apps.ByPackage(pkg)
			if a == nil {
				return fmt.Errorf("fleet: spec %s: class %s: unknown app %q", s.Name, c.Name, pkg)
			}
			if a.Spec.PreserveEGLContext || a.Spec.ExtraProcesses > 0 {
				return fmt.Errorf("fleet: spec %s: class %s: app %q is not migratable", s.Name, c.Name, pkg)
			}
		}
	}
	if share < 0.999999 || share > 1.000001 {
		return fmt.Errorf("fleet: spec %s: class shares sum to %g, want 1", s.Name, share)
	}
	return nil
}

// Hash returns the canonical spec digest: sha256 over the defaulted
// spec's canonical JSON.
func (s Spec) Hash() string {
	data, err := json.Marshal(s.withDefaults())
	if err != nil {
		panic(fmt.Sprintf("fleet: hashing spec: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// ParseSpec decodes a spec from the YAML subset, then applies defaults
// and validates.
func ParseSpec(data []byte) (Spec, error) {
	doc, err := yamlite.Parse(data, "fleet: spec")
	if err != nil {
		return Spec{}, err
	}
	var s Spec
	if err := decodeSpec(doc, &s); err != nil {
		return Spec{}, err
	}
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadSpec reads and parses a spec file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("fleet: reading spec: %w", err)
	}
	s, err := ParseSpec(data)
	if err != nil {
		return Spec{}, fmt.Errorf("fleet: %s: %w", path, err)
	}
	return s, nil
}

// decodeSpec maps a parsed YAML document onto Spec. Classes are
// declared as `classes: [a, b]` plus one `class_<name>:` block per
// entry (the YAML subset nests one level, so classes flatten into
// sibling blocks).
func decodeSpec(doc yamlite.Map, s *Spec) error {
	var classNames []string
	for _, key := range yamlite.SortedKeys(doc) {
		v := doc[key]
		label := "fleet: spec key " + key
		var err error
		switch {
		case key == "schema":
			s.Schema, err = yamlite.Int(v, label)
		case key == "name":
			s.Name, err = yamlite.String(v, label)
		case key == "seed":
			var n int
			n, err = yamlite.Int(v, label)
			s.Seed = int64(n)
		case key == "users":
			s.Users, err = yamlite.Int(v, label)
		case key == "devices_per_user":
			s.DevicesPerUser, err = yamlite.Int(v, label)
		case key == "users_per_ap":
			s.UsersPerAP, err = yamlite.Int(v, label)
		case key == "migrations":
			s.Migrations, err = yamlite.Int(v, label)
		case key == "placement":
			s.Placement, err = yamlite.String(v, label)
		case key == "admission_rate_per_min":
			s.AdmissionRatePerMin, err = yamlite.Float(v, label)
		case key == "admission_burst":
			s.AdmissionBurst, err = yamlite.Int(v, label)
		case key == "max_concurrent_per_ap":
			s.MaxConcurrentPerAP, err = yamlite.Int(v, label)
		case key == "classes":
			classNames, err = yamlite.List(v, label)
		case strings.HasPrefix(key, "class_"):
			// Decoded below, in classes-list order.
		default:
			return fmt.Errorf("fleet: spec key %q is not part of the spec schema", key)
		}
		if err != nil {
			return err
		}
	}
	for _, name := range classNames {
		v, ok := doc["class_"+name]
		if !ok {
			return fmt.Errorf("fleet: spec class %q listed but block class_%s is missing", name, name)
		}
		if !v.IsMap {
			return fmt.Errorf("fleet: spec key class_%s: expected a nested block", name)
		}
		c := Class{Name: name}
		if err := decodeClass(v.Child, name, &c); err != nil {
			return err
		}
		s.Classes = append(s.Classes, c)
	}
	for _, key := range yamlite.SortedKeys(doc) {
		if !strings.HasPrefix(key, "class_") {
			continue
		}
		name := strings.TrimPrefix(key, "class_")
		found := false
		for _, n := range classNames {
			if n == name {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("fleet: spec block %s has no matching entry in classes", key)
		}
	}
	return nil
}

func decodeClass(doc yamlite.Map, name string, c *Class) error {
	for _, key := range yamlite.SortedKeys(doc) {
		v := doc[key]
		label := "fleet: spec key class_" + name + "." + key
		var err error
		switch key {
		case "share":
			c.Share, err = yamlite.Float(v, label)
		case "arrival":
			c.Arrival, err = yamlite.String(v, label)
		case "rate_per_min":
			c.RatePerMin, err = yamlite.Float(v, label)
		case "gamma_shape":
			c.GammaShape, err = yamlite.Float(v, label)
		case "slo_ms":
			c.SLOMillis, err = yamlite.Int(v, label)
		case "hops":
			c.Hops, err = yamlite.Int(v, label)
		case "apps":
			c.Apps, err = yamlite.List(v, label)
		default:
			return fmt.Errorf("fleet: spec key class_%s.%s is not a class field", name, key)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ScaledSpec returns the default fleet workload scaled to a device
// count — the fluxlab fleet scenario's sweep axis. migrations == 0
// scales the migration count with the fleet (10 per user).
func ScaledSpec(name string, devices, migrations int, seed int64) Spec {
	s := Spec{
		Name:           name,
		Seed:           seed,
		DevicesPerUser: 3,
		Users:          (devices + 2) / 3,
		Migrations:     migrations,
		Placement:      PlacementLeastLoaded,

		AdmissionRatePerMin: 240,
		MaxConcurrentPerAP:  16,
		Classes: []Class{
			{
				Name:       "interactive",
				Share:      0.6,
				Arrival:    ArrivalPoisson,
				RatePerMin: 180,
				SLOMillis:  12000,
				Hops:       1,
				Apps:       []string{"com.king.candycrushsaga", "com.twitter.android"},
			},
			{
				Name:       "commuter",
				Share:      0.4,
				Arrival:    ArrivalGamma,
				RatePerMin: 120,
				SLOMillis:  30000,
				Hops:       2,
				Apps:       []string{"com.netflix.mediaclient", "com.whatsapp"},
			},
		},
	}
	return s.withDefaults()
}
