// Command smartdev is the smart-device client — the command-line
// equivalent of the paper's Figure 5 web form. It fetches the IBE system
// parameters from the PKG, encrypts a message toward an attribute, and
// deposits it at the MWS.
//
// One-shot:
//
//	smartdev -id meter-001 -mac-key <hex> -mws 127.0.0.1:7701 -pkg 127.0.0.1:7702 \
//	         -attr ELECTRIC-APTCOMPLEX-SV-CA -message "reading=42.7kWh"
//
// Interactive demo (Figure 5 equivalent):
//
//	smartdev -id meter-001 -mac-key <hex> -mws ... -pkg ... -demo
package main

import (
	"bufio"
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"mwskit/internal/attr"
	"mwskit/internal/device"
	"mwskit/internal/obsv"
	"mwskit/internal/pkgparams"
	"mwskit/internal/symenc"
	"mwskit/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("smartdev: ")
	id := flag.String("id", "", "device identity (required)")
	macKeyHex := flag.String("mac-key", "", "hex MAC key from mwsd register-device (required)")
	mwsAddr := flag.String("mws", "127.0.0.1:7701", "MWS address")
	pkgAddr := flag.String("pkg", "127.0.0.1:7702", "PKG address")
	attribute := flag.String("attr", "", "recipient attribute, e.g. ELECTRIC-APTCOMPLEX-SV-CA")
	message := flag.String("message", "", "message body")
	keywords := flag.String("keywords", "", "comma-separated searchable keywords to tag the message with")
	schemeName := flag.String("scheme", "AES-128-GCM", "symmetric scheme: "+strings.Join(symenc.Names(), ", "))
	demo := flag.Bool("demo", false, "interactive mode (Figure 5 equivalent)")
	trace := flag.Bool("trace", false, "stamp the deposit with a trace ID (query it back via mwsd's TTrace or /traces)")
	flag.Parse()

	if *id == "" || *macKeyHex == "" {
		log.Fatal("-id and -mac-key are required")
	}
	macKey, err := hex.DecodeString(*macKeyHex)
	if err != nil {
		log.Fatal("invalid -mac-key hex")
	}
	scheme, err := symenc.ByName(*schemeName)
	if err != nil {
		log.Fatal(err)
	}

	pkgConn, err := wire.Dial(*pkgAddr)
	if err != nil {
		log.Fatalf("dial PKG: %v", err)
	}
	defer pkgConn.Close()
	params, err := pkgparams.Fetch(context.Background(), pkgConn)
	if err != nil {
		log.Fatalf("fetch parameters: %v", err)
	}
	sd, err := device.New(*id, macKey, params, device.WithScheme(scheme))
	if err != nil {
		log.Fatal(err)
	}
	mwsConn, err := wire.Dial(*mwsAddr)
	if err != nil {
		log.Fatalf("dial MWS: %v", err)
	}
	defer mwsConn.Close()

	if *demo {
		runDemo(sd, mwsConn)
		return
	}
	if *attribute == "" || *message == "" {
		log.Fatal("-attr and -message are required (or use -demo)")
	}

	// With -trace, the deposit runs under a client-generated root span
	// whose trace ID rides the wire to the MWS; the server's stage spans
	// (decode, auth, replay, store.write, wal.append) stitch to it.
	ctx := context.Background()
	var root *obsv.Span
	if *trace {
		tracer := obsv.NewTracer("smartdev", 64, 0, nil)
		ctx, root = tracer.StartRoot(ctx, "smartdev.deposit")
	}
	var seq uint64
	if *keywords != "" {
		kws := strings.Split(*keywords, ",")
		seq, err = sd.DepositTaggedContext(ctx, mwsConn, attr.Attribute(*attribute), []byte(*message), kws)
	} else {
		seq, err = sd.DepositContext(ctx, mwsConn, attr.Attribute(*attribute), []byte(*message))
	}
	root.End()
	if err != nil {
		log.Fatalf("deposit: %v", err)
	}
	fmt.Printf("deposited message #%d toward %s\n", seq, *attribute)
	if root != nil {
		fmt.Printf("trace id %d\n", root.Context().TraceID)
	}
}

// runDemo is the text-mode equivalent of the Figure 5 web form: pick an
// attribute, type a message, submit.
func runDemo(sd *device.Device, mwsConn *wire.Client) {
	presets := []attr.Attribute{
		"ELECTRIC-APTCOMPLEX-SV-CA",
		"WATER-APTCOMPLEX-SV-CA",
		"GAS-APTCOMPLEX-SV-CA",
	}
	in := bufio.NewScanner(os.Stdin)
	fmt.Printf("Smart Device %s — message submission (Ctrl-D to quit)\n", sd.ID())
	for {
		fmt.Println("\nAttributes:")
		for i, a := range presets {
			fmt.Printf("  [%d] %s\n", i+1, a)
		}
		fmt.Print("Choose attribute (1-3) or type a custom one: ")
		if !in.Scan() {
			return
		}
		choice := strings.TrimSpace(in.Text())
		var a attr.Attribute
		switch choice {
		case "1", "2", "3":
			a = presets[choice[0]-'1']
		default:
			a = attr.Attribute(choice)
		}
		if err := a.Validate(); err != nil {
			fmt.Printf("invalid attribute: %v\n", err)
			continue
		}
		fmt.Print("Message: ")
		if !in.Scan() {
			return
		}
		msg := in.Text()
		seq, err := sd.Deposit(mwsConn, a, []byte(msg))
		if err != nil {
			fmt.Printf("deposit failed: %v\n", err)
			continue
		}
		fmt.Printf("✓ deposited as message #%d (timestamp appended automatically)\n", seq)
	}
}
