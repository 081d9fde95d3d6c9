package services

import (
	"sort"
	"strings"
	"sync"

	"flux/internal/aidl"
	"flux/internal/binder"
)

// PackageAIDL is the (undecorated) IPackageManager subset. The
// PackageManagerService tracks installed-app metadata (paper §2); Flux's
// pairing phase pseudo-installs a migrating app's metadata here so the
// guest knows the app's permissions and components before any migration
// (paper §3.1). It carries no @record decorations — install state is
// device-local and moved by pairing, not by replay — which is why it is
// not one of Table 2's 22 decorated services.
const PackageAIDL = `
interface IPackageManager {
    String getPackageInfo(String packageName);
    boolean isInstalled(String packageName);
    int getApiLevel(String packageName);
    String getInstalledPackages();
}
`

// PackageInterface is the compiled IPackageManager.
var PackageInterface = aidl.MustParse(PackageAIDL)

// PackageInfo is one installed (or pseudo-installed) app's metadata.
type PackageInfo struct {
	Package     string
	Label       string
	APILevel    int
	Pseudo      bool // pairing-time wrapper install
	Permissions []string
	Components  []string
}

// PackageManagerService tracks app installation metadata.
type PackageManagerService struct {
	sys *System

	mu   sync.Mutex
	pkgs map[string]PackageInfo
}

func newPackageManagerService(s *System) *PackageManagerService {
	p := &PackageManagerService{sys: s, pkgs: make(map[string]PackageInfo)}
	disp := aidl.NewDispatcher(PackageInterface).
		Handle("getPackageInfo", func(call *binder.Call, args aidl.Args) error {
			name := args.String(0)
			info, ok := p.Info(name)
			if !ok {
				call.Reply.WriteString("")
				return nil
			}
			kind := "native"
			if info.Pseudo {
				kind = "pseudo"
			}
			call.Reply.WriteString(info.Label + "/" + kind)
			return nil
		}).
		Handle("isInstalled", func(call *binder.Call, args aidl.Args) error {
			_, ok := p.Info(args.String(0))
			call.Reply.WriteBool(ok)
			return nil
		}).
		Handle("getApiLevel", func(call *binder.Call, args aidl.Args) error {
			info, _ := p.Info(args.String(0))
			call.Reply.WriteInt32(int32(info.APILevel))
			return nil
		}).
		Handle("getInstalledPackages", func(call *binder.Call, args aidl.Args) error {
			call.Reply.WriteString(strings.Join(p.Packages(), ";"))
			return nil
		})
	if _, err := binder.AddService(s.proc.Binder(), "package", PackageInterface.Name, disp); err != nil {
		panic(err)
	}
	return p
}

// Install records (or upgrades) a package's metadata. A real install
// replaces a pseudo-install.
func (p *PackageManagerService) Install(info PackageInfo) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pkgs[info.Package] = info
}

// Remove forgets a package.
func (p *PackageManagerService) Remove(pkg string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.pkgs, pkg)
}

// Info returns a package's metadata.
func (p *PackageManagerService) Info(pkg string) (PackageInfo, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	info, ok := p.pkgs[pkg]
	return info, ok
}

// Packages lists installed packages, sorted.
func (p *PackageManagerService) Packages() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.pkgs))
	for pkg := range p.pkgs {
		out = append(out, pkg)
	}
	sort.Strings(out)
	return out
}
