// Package pkgparams fetches the PKG's public IBE parameters — the paper's
// "SD obtains the parameters [from the PKG] and uses them later" (§VIII);
// the receiving client and the warehouse need them just the same. It needs
// only wire, pairing and bfibe, so no party links another's role to get them.
package pkgparams

import (
	"context"
	"fmt"

	"mwskit/internal/bfibe"
	"mwskit/internal/pairing"
	"mwskit/internal/wire"
)

// Fetch asks an open PKG connection for its parameters and instantiates
// them against the pairing preset it names.
func Fetch(ctx context.Context, pkg *wire.Client) (*bfibe.Params, error) {
	pr, err := wire.Call(ctx, pkg, wire.OpParams, nil)
	if err != nil {
		return nil, err
	}
	preset, ok := pairing.Presets[pr.Preset]
	if !ok {
		return nil, fmt.Errorf("pkgparams: PKG uses unknown preset %q", pr.Preset)
	}
	sys, err := preset.System()
	if err != nil {
		return nil, err
	}
	return bfibe.UnmarshalParams(sys, pr.PPub)
}
