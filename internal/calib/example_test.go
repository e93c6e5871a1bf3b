package calib_test

import (
	"fmt"

	"repro/internal/calib"
	"repro/internal/mathx"
)

// Example shows the SSPA calibration flow: fabricate a mismatched 14-bit
// DAC, calibrate, and compare the worst INL.
func Example() {
	d, err := calib.NewDAC(calib.Paper14Bit(0.008), mathx.NewRNG(7))
	if err != nil {
		fmt.Println(err)
		return
	}
	before := d.MaxINL()
	d.CalibrateSSPA(0, mathx.NewRNG(1))
	fmt.Printf("INL %.2f -> %.2f LSB\n", before, d.MaxINL())
	// Output:
	// INL 0.89 -> 0.29 LSB
}
