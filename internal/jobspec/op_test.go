package jobspec

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// otaOPSHA256 pins the JSON of the op result on the OTA example deck:
// every node voltage and every device's ID, gm and region, recorded when
// each converged solve evaluated every MOSFET's operating point eagerly.
const otaOPSHA256 = "f49ac7268b9eed0fcf7dbc7c8f58d238b40f1bba8621532da09b3029b07d2a36"

// TestOPResultPinned checks that evaluating a MOSFET's operating point on
// demand, at the bias of the last converged solve, reports the same bits
// as the eager evaluation it replaced.
func TestOPResultPinned(t *testing.T) {
	deck, err := os.ReadFile("../../examples/ota_reliability/ota.sp")
	if err != nil {
		t.Fatal(err)
	}
	s := &Spec{Analysis: KindOP, Netlist: string(deck)}
	s.ApplyDefaults()
	res, err := Execute(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OP.Devices) != 8 {
		t.Fatalf("devices = %+v, want the deck's 8 MOSFETs", res.OP.Devices)
	}
	b, err := json.Marshal(res.OP)
	if err != nil {
		t.Fatal(err)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(b)); sum != otaOPSHA256 {
		t.Errorf("op result sha256 %s, want %s\n%s", sum, otaOPSHA256, b)
	}
}
