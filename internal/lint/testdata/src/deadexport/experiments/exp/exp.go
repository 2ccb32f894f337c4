// Package exp is an experiment: its calls keep nothing alive.
package exp

import "mwskit/internal/lint/testdata/src/deadexport/internal/store"

func Run() int { return store.OnlyExperiments() }
