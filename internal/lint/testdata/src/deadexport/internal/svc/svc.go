// Package svc implements store.Handler, whose signature names a store
// type: used only through the interface, Handle stays.
package svc

import "mwskit/internal/lint/testdata/src/deadexport/internal/store"

type Service struct{}

func (*Service) Handle(f store.Frame) store.Frame { return f }
