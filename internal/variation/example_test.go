package variation_test

import (
	"context"
	"fmt"

	"repro/internal/device"
	"repro/internal/mathx"
	"repro/internal/variation"
)

// ExampleMinAreaForOffset sizes a matched pair with the inverted Pelgrom
// law: how much gate area does a 5 mV / 3σ offset budget cost at 90 nm?
func ExampleMinAreaForOffset() {
	tech := device.MustTech("90nm")
	area, err := variation.MinAreaForOffset(tech, 5e-3, 0.997, 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("required area: %.1f um^2\n", area*1e12)
	// Output:
	// required area: 6.8 um^2
}

// ExampleCampaign estimates a mismatch yield with a reproducible
// parallel Monte-Carlo run.
func ExampleCampaign() {
	tech := device.MustTech("65nm")
	camp := variation.Campaign{
		Trials: 2000,
		Seed:   42,
		Spec:   &variation.Spec{Lo: -0.03, Hi: 0.03},
		Trial: func(rng *mathx.RNG, _ int) (float64, error) {
			return variation.SamplePairDeltaVT(tech, 1e-6, 65e-9, 0, rng), nil
		},
	}
	res, err := camp.Run(context.Background())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("pairs within ±30 mV: %s\n", res.Stats.Yield())
	// Output:
	// pairs within ±30 mV: 92.5% [91.2, 93.5]
}

// ExampleCorner_Apply runs the skewed SF corner on a metric.
func ExampleCorner_Apply() {
	corners := variation.StandardCorners(0.03, 0.08)
	for _, c := range corners {
		if c.Name == "SF" {
			fmt.Printf("SF: nMOS ΔVT %+.0f mV, pMOS ΔVT %+.0f mV\n",
				c.DeltaVTN*1e3, c.DeltaVTP*1e3)
		}
	}
	// Output:
	// SF: nMOS ΔVT +30 mV, pMOS ΔVT -30 mV
}
