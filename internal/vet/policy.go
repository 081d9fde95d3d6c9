package vet

// DefaultSpecWaivers is the shipped policy for the internal/services
// decorator specs: every intentional deviation from the layer-1 checks,
// each with its rationale. fluxvet applies these by default; a waiver that
// stops matching (because the spec changed) surfaces as a stale-waiver
// finding, so this list cannot drift from the specs silently.
func DefaultSpecWaivers() []Waiver {
	return []Waiver{
		// Paper Figure 9: the alarm @if signature guards the PendingIntent
		// `operation` argument. In this simulation parcelables are
		// aidl.Object canonical strings, so the @if comparison is exact:
		// the recorder's binder.Key is equal exactly when EntryString, the
		// full serialized form, is. Handles and fds compare by their
		// device-local numbers.
		{Check: "guard-type", Interface: "IAlarmManager", Method: "set",
			Reason: "paper Fig. 9 guards the PendingIntent operation; aidl.Object canonical form makes the comparison exact"},
		{Check: "guard-type", Interface: "IAlarmManager", Method: "remove",
			Reason: "paper Fig. 9 guards the PendingIntent operation; aidl.Object canonical form makes the comparison exact"},

		// Intentionally unrecorded state-mutating methods: their effects
		// are device-local (never migrate) or transient (nothing to
		// replay). Each matches the paper's Table 2 decoration set.
		{Check: "no-record", Interface: "IAlarmManager", Method: "setTime",
			Reason: "sets the device wall clock: device-local, must not replay onto a guest"},
		{Check: "no-record", Interface: "IAlarmManager", Method: "setTimeZone",
			Reason: "device-local time zone, must not replay onto a guest"},
		{Check: "no-record", Interface: "IWifiManager", Method: "startScan",
			Reason: "transient scan trigger; results are not durable service state"},
		{Check: "no-record", Interface: "IPowerManager", Method: "goToSleep",
			Reason: "device-local power transition; replaying would blank the guest screen"},
		{Check: "no-record", Interface: "IPowerManager", Method: "wakeUp",
			Reason: "device-local power transition"},
		{Check: "no-record", Interface: "IActivityManager", Method: "broadcastIntent",
			Reason: "transient delivery; receivers re-register via recorded registerReceiver calls"},
		{Check: "no-record", Interface: "IActivityManager", Method: "moveTaskToBack",
			Reason: "activity-stack order migrates inside the CRIA image, not via replay"},
		{Check: "no-record", Interface: "IActivityManager", Method: "setProcessImportance",
			Reason: "scheduler hint re-derived by the guest's own activity manager"},
		{Check: "no-record", Interface: "ISensorEventConnection", Method: "destroy",
			Reason: "tears the connection down; a destroyed connection has no state to rebuild"},
	}
}
