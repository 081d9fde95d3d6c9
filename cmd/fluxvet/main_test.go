package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flux/internal/aidl"
	"flux/internal/binder"
	"flux/internal/cria"
	"flux/internal/record"
	"flux/internal/services"
	"flux/internal/vet"
)

// TestValidateFlags pins the flag-hygiene contract: -image and
// -fullrecord without -logs fail fast with a message naming the flag.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		set     map[string]bool
		logs    string
		wantErr string // substring of the error, "" = must succeed
	}{
		{name: "defaults"},
		{name: "logs path implies layer", set: map[string]bool{"logs": true}, logs: "run.flxl"},
		{name: "image without logs", set: map[string]bool{"image": true}, wantErr: "-image only applies with -logs"},
		{name: "fullrecord without logs", set: map[string]bool{"fullrecord": true}, wantErr: "-fullrecord only applies with -logs"},
		{name: "image and fullrecord with logs", set: map[string]bool{"logs": true, "image": true, "fullrecord": true}, logs: "run.flxl"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.set, tc.logs)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

// TestRunSpecShippedClean is the CLI-level acceptance gate: the spec layer
// over the shipped catalog, with the shipped waivers and the live proxy
// registry, reports nothing.
func TestRunSpecShippedClean(t *testing.T) {
	if fs := runSpec(); len(fs) != 0 {
		t.Fatalf("shipped specs not clean: %v", fs)
	}
}

// TestRunLogsEndToEnd exercises the persisted-log path end to end:
// SaveFile → LoadFile → LintLog against the shipped specs, with and
// without a CRIA image gating the handle checks.
func TestRunLogsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	itf := services.NotificationInterface
	m := itf.Method("enqueueNotification")
	if m == nil {
		t.Fatal("no enqueueNotification in the shipped spec")
	}
	p, err := aidl.MarshalCallArgs(m, int32(1), aidl.Object("notif"))
	if err != nil {
		t.Fatal(err)
	}
	log := record.NewLog()
	log.Append(&record.Entry{
		Seq: 1, App: "com.app", Interface: itf.Name, Method: m.Name,
		Code: m.Code, Handle: 7, Data: p.Marshal(),
	})
	logPath := filepath.Join(dir, "run.flxl")
	if err := log.SaveFile(logPath); err != nil {
		t.Fatal(err)
	}

	// Without an image the log is clean.
	fs, err := runLogs(logPath, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("clean log produced findings: %v", fs)
	}

	// An image that does not restore handle 7 turns the same entry into
	// a replay hazard.
	img := &cria.Image{
		Pkg: "com.app",
		Handles: []cria.HandleRecord{
			{Handle: 3, Kind: cria.HandleSystemService, ServiceName: "alarm", Descriptor: "IAlarmManager"},
		},
	}
	data, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	imgPath := filepath.Join(dir, "app.cria")
	if err := os.WriteFile(imgPath, data, 0o600); err != nil {
		t.Fatal(err)
	}
	fs, err = runLogs(logPath, imgPath, false)
	if err != nil {
		t.Fatal(err)
	}
	var hazards []vet.Finding
	for _, f := range fs {
		if f.Check == "replay-hazard" {
			hazards = append(hazards, f)
		}
	}
	if len(hazards) != 1 {
		t.Fatalf("want one replay-hazard for handle 7, got %v", fs)
	}

	// Restoring the handle clears it.
	img.Handles = append(img.Handles, cria.HandleRecord{
		Handle: binder.Handle(7), Kind: cria.HandleSystemService,
		ServiceName: "notification", Descriptor: itf.Name,
	})
	data, err = img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(imgPath, data, 0o600); err != nil {
		t.Fatal(err)
	}
	fs, err = runLogs(logPath, imgPath, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("restored handle should be clean: %v", fs)
	}
}
