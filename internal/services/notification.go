package services

import (
	"fmt"
	"sync"

	"flux/internal/aidl"
	"flux/internal/binder"
)

// NotificationAIDL is the decorated interface from paper Figure 7, extended
// with cancelAll and a read-only query.
const NotificationAIDL = `
interface INotificationManager {
    @record
    void enqueueNotification(int id, in Notification notification);

    @record {
        @drop this, enqueueNotification;
        @if id;
    }
    void cancelNotification(int id);

    @record {
        @drop this, enqueueNotification, cancelNotification;
    }
    void cancelAllNotifications();

    int getActiveNotificationCount();
    String getNotification(int id);
}
`

// NotificationInterface is the compiled INotificationManager.
var NotificationInterface = aidl.MustParse(NotificationAIDL)

// NotificationManagerService posts notifications to the status bar on
// behalf of apps.
type NotificationManagerService struct {
	sys *System

	mu     sync.Mutex
	active map[string]map[int32]string // pkg → id → payload
}

func newNotificationManagerService(s *System) *NotificationManagerService {
	n := &NotificationManagerService{sys: s, active: make(map[string]map[int32]string)}
	disp := aidl.NewDispatcher(NotificationInterface).
		Handle("enqueueNotification", n.enqueue).
		Handle("cancelNotification", n.cancel).
		Handle("cancelAllNotifications", n.cancelAll).
		Handle("getActiveNotificationCount", n.count).
		Handle("getNotification", n.get)
	s.register("notification", NotificationInterface, disp, n)
	return n
}

func (n *NotificationManagerService) enqueue(call *binder.Call, args aidl.Args) error {
	pkg, err := n.sys.callerPkg(call)
	if err != nil {
		return err
	}
	id := args.Int(0)
	payload := args.String(1)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.active[pkg] == nil {
		n.active[pkg] = make(map[int32]string)
	}
	n.active[pkg][id] = payload
	return nil
}

func (n *NotificationManagerService) cancel(call *binder.Call, args aidl.Args) error {
	pkg, err := n.sys.callerPkg(call)
	if err != nil {
		return err
	}
	id := args.Int(0)
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.active[pkg], id)
	return nil
}

func (n *NotificationManagerService) cancelAll(call *binder.Call, args aidl.Args) error {
	pkg, err := n.sys.callerPkg(call)
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.active, pkg)
	return nil
}

func (n *NotificationManagerService) count(call *binder.Call, args aidl.Args) error {
	pkg, err := n.sys.callerPkg(call)
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	call.Reply.WriteInt32(int32(len(n.active[pkg])))
	return nil
}

func (n *NotificationManagerService) get(call *binder.Call, args aidl.Args) error {
	pkg, err := n.sys.callerPkg(call)
	if err != nil {
		return err
	}
	id := args.Int(0)
	n.mu.Lock()
	defer n.mu.Unlock()
	call.Reply.WriteString(n.active[pkg][id])
	return nil
}

// AppState implements AppStater: one key per active notification.
func (n *NotificationManagerService) AppState(pkg string) map[string]string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]string, len(n.active[pkg]))
	for id, payload := range n.active[pkg] {
		out[fmt.Sprintf("notif.%d", id)] = payload
	}
	return out
}

// ForgetApp implements AppStater.
func (n *NotificationManagerService) ForgetApp(pkg string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.active, pkg)
}
