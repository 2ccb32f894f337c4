package core

import (
	"context"
	"strings"
	"testing"

	"mwskit/internal/wire"
)

// TestStatsCoverEveryRoute is the pipeline's instrumentation-coverage
// check: after one request per registered route in both services, the
// TStats introspection op must report a nonzero count for every route.
// A route added to a service without flowing through the instrumented
// router fails this test.
func TestStatsCoverEveryRoute(t *testing.T) {
	dep := newTestDeployment(t)
	mwsConn, pkgConn := dialBoth(t, dep)

	services := []struct {
		name   string
		conn   *wire.Client
		types  []wire.Type
		prefix string
	}{
		{"mws", mwsConn, routed(dep.MWS, wire.Ops()), "mws."},
		{"pkg", pkgConn, routed(dep.PKG, wire.Ops()), "pkg."},
	}
	for _, svc := range services {
		if len(svc.types) < 3 {
			t.Fatalf("%s registers only %d routes", svc.name, len(svc.types))
		}
		// One request per route. Payloads are junk; an error response
		// still counts — instrumentation wraps every outcome.
		for _, typ := range svc.types {
			svc.conn.Do(wire.Frame{Type: typ})
		}
		stats, err := wire.Call(context.Background(), svc.conn, wire.OpStats, nil)
		if err != nil {
			t.Fatalf("%s stats: %v", svc.name, err)
		}
		byOp := make(map[string]wire.OpStat, len(stats.Ops))
		for _, op := range stats.Ops {
			byOp[op.Op] = op
		}
		for _, typ := range svc.types {
			op, ok := byOp[typ.String()]
			if !ok {
				t.Errorf("%s route %s registered but unreported by TStats", svc.name, typ)
				continue
			}
			if op.Requests == 0 {
				t.Errorf("%s route %s reported zero requests", svc.name, typ)
			}
		}

		// The same counts must surface in-process through the deployment.
		snap := dep.MetricsSnapshot()
		for _, typ := range svc.types {
			key := svc.prefix + typ.String()
			if snap[key].Requests == 0 {
				t.Errorf("MetricsSnapshot missing %s", key)
			}
		}
	}
}

// routed returns the request types of the ops a service answers with
// anything other than the router's "unsupported frame type" refusal. The
// probe payload is empty, so most answers are decode errors — which still
// prove a route exists.
func routed(svc wire.Handler, ops []wire.OpInfo) []wire.Type {
	var types []wire.Type
	for _, op := range ops {
		resp := svc.Handle(context.Background(), wire.Frame{Type: op.Req})
		if em, err := wire.UnmarshalErrorMsg(resp.Payload); resp.Type == wire.TError && err == nil &&
			strings.Contains(em.Message, "unsupported frame type") {
			continue
		}
		types = append(types, op.Req)
	}
	return types
}

// TestEveryOpIsRouted replaces the wireops analyzer's route check: every
// exchange declared in the op table is served by the MWS or the PKG. An
// op with no route anywhere — seeded here as one extra table row — is
// reported.
func TestEveryOpIsRouted(t *testing.T) {
	dep := newTestDeployment(t)
	unrouted := func(ops []wire.OpInfo) (names []string) {
		served := map[wire.Type]bool{}
		for _, svc := range []wire.Handler{dep.MWS, dep.PKG} {
			for _, typ := range routed(svc, ops) {
				served[typ] = true
			}
		}
		for _, op := range ops {
			if !served[op.Req] {
				names = append(names, op.Name)
			}
		}
		return names
	}
	if names := unrouted(wire.Ops()); len(names) != 0 {
		t.Fatalf("ops declared in the table but served by neither the MWS nor the PKG: %v", names)
	}
	orphan := wire.OpInfo{Name: "Orphan", RespName: "OrphanResp", Req: 201, Resp: 202}
	if names := unrouted(append(wire.Ops(), orphan)); len(names) != 1 || names[0] != "Orphan" {
		t.Fatalf("seeded unrouted op not reported: got %v", names)
	}
}
