// Package analog provides a complete analog building block — a two-stage
// Miller-compensated OTA — together with the measurements the paper says
// degradation erodes: DC gain, unity-gain bandwidth, phase margin, CMRR
// and input offset. It is the repository's "realistic analog circuit"
// vehicle: variability sets its offset and yield (§2), NBTI/HCI eat its
// gain over life (§3.2: "the performance of analog circuits (e.g. gain or
// CMRR) is influenced").
package analog

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/mathx"
)

// OTAConfig sizes the two-stage amplifier.
type OTAConfig struct {
	Tech *device.Technology
	// WPair is the input-pair width; the pair uses 2×Lmin length.
	WPair float64
	// WLoad is the first-stage NMOS mirror width.
	WLoad float64
	// WTail is the tail/bias PMOS width.
	WTail float64
	// WDrv and WSrc size the second stage (NMOS driver, PMOS source).
	WDrv, WSrc float64
	// CC is the Miller compensation capacitor.
	CC float64
	// CL is the load capacitance.
	CL float64
	// IBias is the reference current into the bias mirror.
	IBias float64
	// VCM is the input common-mode voltage.
	VCM float64
}

// DefaultOTA returns a working 180 nm design: ~50 dB DC gain, MHz-range
// GBW into 2 pF.
func DefaultOTA() OTAConfig {
	tech := device.MustTech("180nm")
	return OTAConfig{
		Tech:  tech,
		WPair: 16e-6,
		WLoad: 4e-6,
		WTail: 16e-6,
		WDrv:  12e-6,
		WSrc:  24e-6,
		CC:    1e-12,
		CL:    2e-12,
		IBias: 20e-6,
		VCM:   0.9,
	}
}

// OTA is one amplifier instance: the circuit plus handles to its devices
// and measurement nodes. The testbench wraps the amplifier in the classic
// open-loop measurement harness — a huge inductor closes the loop at DC
// (so the operating point self-biases) while leaving it open at AC.
type OTA struct {
	Config  OTAConfig
	Circuit *circuit.Circuit
	// Devices by role, for mismatch/aging access.
	M1, M2, M3, M4, MTail, MDrv, MSrc, MBias *circuit.MOSFET
	// vin is the differential stimulus source; vcmAC the common-mode one.
	vin *circuit.VSource
	vcm *circuit.VSource
}

// NewOTA builds the amplifier and its measurement harness.
func NewOTA(cfg OTAConfig) (*OTA, error) {
	if cfg.Tech == nil {
		return nil, fmt.Errorf("analog: missing technology")
	}
	if cfg.CC <= 0 || cfg.CL <= 0 || cfg.IBias <= 0 {
		return nil, fmt.Errorf("analog: non-positive CC/CL/IBias")
	}
	t := cfg.Tech
	l1 := 2 * t.Lmin
	c := circuit.New()
	o := &OTA{Config: cfg, Circuit: c}

	c.AddVSource("VDD", "vdd", "0", circuit.DC(t.VDD))
	// Bias mirror: IBIAS pulls current out of the PMOS diode MBIAS.
	c.AddISource("IBIAS", "nbias", "0", circuit.DC(cfg.IBias))
	o.MBias = c.AddMOSFET("MBIAS", "nbias", "nbias", "vdd", "vdd",
		device.NewMosfet(t.PMOSParams(cfg.WTail, l1, 300)))
	// Tail source for the input pair.
	o.MTail = c.AddMOSFET("MTAIL", "tail", "nbias", "vdd", "vdd",
		device.NewMosfet(t.PMOSParams(cfg.WTail, l1, 300)))
	// PMOS input pair.
	o.M1 = c.AddMOSFET("M1", "n1", "inp", "tail", "vdd",
		device.NewMosfet(t.PMOSParams(cfg.WPair, l1, 300)))
	o.M2 = c.AddMOSFET("M2", "n2", "inn", "tail", "vdd",
		device.NewMosfet(t.PMOSParams(cfg.WPair, l1, 300)))
	// NMOS mirror load (diode on n1).
	o.M3 = c.AddMOSFET("M3", "n1", "n1", "0", "0",
		device.NewMosfet(t.NMOSParams(cfg.WLoad, l1, 300)))
	o.M4 = c.AddMOSFET("M4", "n2", "n1", "0", "0",
		device.NewMosfet(t.NMOSParams(cfg.WLoad, l1, 300)))
	// Second stage: NMOS driver from n2, PMOS current-source load.
	o.MDrv = c.AddMOSFET("MDRV", "out", "n2", "0", "0",
		device.NewMosfet(t.NMOSParams(cfg.WDrv, l1, 300)))
	o.MSrc = c.AddMOSFET("MSRC", "out", "nbias", "vdd", "vdd",
		device.NewMosfet(t.PMOSParams(cfg.WSrc, l1, 300)))
	// Miller compensation and load.
	c.AddCapacitor("CC", "n2", "out", cfg.CC)
	c.AddCapacitor("CL", "out", "0", cfg.CL)

	// Measurement harness. In this topology inp (M1, whose drain carries
	// the mirror diode) is the *inverting* input: raising inp lowers the
	// mirror current, lifts n2 and drops out. The DC feedback therefore
	// closes from out to inp through a huge inductor (short at DC, open
	// at AC), while a huge capacitor AC-grounds inp to the common-mode
	// source. The differential stimulus drives the non-inverting input
	// inn directly.
	o.vin = c.AddVSource("VIN", "inn", "0", circuit.DC(cfg.VCM))
	o.vcm = c.AddVSource("VCM", "cm", "0", circuit.DC(cfg.VCM))
	c.AddInductor("LFB", "out", "inp", 1e6)
	c.AddCapacitor("CAC", "inp", "cm", 1)
	c.AddResistor("RCM", "cm", "inp", 1e12) // keeps inp's DC path defined
	return o, nil
}

// OperatingPoint solves and returns the DC solution.
func (o *OTA) OperatingPoint() (*circuit.Solution, error) {
	return o.Circuit.OperatingPoint()
}

// InputOffset returns the input-referred offset voltage: with the
// unity-DC-feedback harness the loop drives the inverting input (and with
// it the output) to VCM − Vos, so the offset is VCM − V(inp).
func (o *OTA) InputOffset() (float64, error) {
	sol, err := o.OperatingPoint()
	if err != nil {
		return 0, err
	}
	return o.Config.VCM - sol.Voltage("inp"), nil
}

// Specs holds the measured small-signal performance.
type Specs struct {
	// DCGainDB is the open-loop differential gain at 10 Hz in dB.
	DCGainDB float64
	// GBW is the unity-gain frequency in Hz.
	GBW float64
	// PhaseMarginDeg is 180° + phase(out) at the unity-gain frequency.
	PhaseMarginDeg float64
	// CMRRDB is the common-mode rejection ratio at 1 kHz in dB.
	CMRRDB float64
}

// Measure runs the AC analyses and extracts the spec set.
func (o *OTA) Measure() (*Specs, error) {
	// Differential gain sweep.
	o.vin.ACMag = 1
	o.vcm.ACMag = 0
	freqs := mathx.Logspace(10, 1e9, 73)
	pts, err := o.Circuit.AC(freqs)
	if err != nil {
		return nil, fmt.Errorf("analog: differential AC: %w", err)
	}
	s := &Specs{DCGainDB: pts[0].MagDB("out")}

	// Unity crossing: first point where the gain falls below 0 dB.
	s.GBW = math.NaN()
	for i := 1; i < len(pts); i++ {
		g0, g1 := pts[i-1].MagDB("out"), pts[i].MagDB("out")
		if g0 >= 0 && g1 < 0 {
			f := g0 / (g0 - g1)
			s.GBW = math.Exp(math.Log(pts[i-1].Freq) + f*(math.Log(pts[i].Freq)-math.Log(pts[i-1].Freq)))
			ph0, ph1 := pts[i-1].PhaseDeg("out"), pts[i].PhaseDeg("out")
			s.PhaseMarginDeg = 180 + unwrapTo(ph0+f*(ph1-ph0))
			break
		}
	}
	if math.IsNaN(s.GBW) {
		return nil, fmt.Errorf("analog: no unity-gain crossing below 1 GHz (gain %g dB)", s.DCGainDB)
	}

	// Common-mode gain: stimulate both inputs (inp directly, inn through
	// the AC-shorted capacitor from the cm node).
	o.vin.ACMag = 1
	o.vcm.ACMag = 1
	cmPts, err := o.Circuit.AC([]float64{1e3})
	o.vcm.ACMag = 0
	if err != nil {
		return nil, fmt.Errorf("analog: common-mode AC: %w", err)
	}
	dmPts, err := o.Circuit.AC([]float64{1e3})
	if err != nil {
		return nil, err
	}
	cmGain := cmPts[0].Mag("out")
	dmGain := dmPts[0].Mag("out")
	if cmGain <= 0 {
		return nil, fmt.Errorf("analog: zero common-mode gain")
	}
	s.CMRRDB = 20 * math.Log10(dmGain/cmGain)
	return s, nil
}

// unwrapTo folds a phase into (-360, 0] so that 180+phase is a meaningful
// margin for an inverting two-stage loop.
func unwrapTo(ph float64) float64 {
	for ph > 0 {
		ph -= 360
	}
	for ph <= -360 {
		ph += 360
	}
	return ph
}

// AllDevices lists every transistor in the amplifier.
func (o *OTA) AllDevices() []*circuit.MOSFET {
	return []*circuit.MOSFET{o.M1, o.M2, o.M3, o.M4, o.MTail, o.MDrv, o.MSrc, o.MBias}
}
