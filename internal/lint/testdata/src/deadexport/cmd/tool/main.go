// Command tool is the fixture's production caller.
package main

import (
	"fmt"

	"mwskit/internal/lint/testdata/src/deadexport/internal/store"
	"mwskit/internal/lint/testdata/src/deadexport/internal/svc"
)

func main() {
	r := store.New()
	fmt.Fprint(&store.Buf{}, r.Get("k"), store.Queue{}.Len(), store.Serve(&svc.Service{}))
}
