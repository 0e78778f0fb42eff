// Package workload implements the paper's four software benchmarks (§4.2):
//
//   - DE (Data Encryption): continuous software AES-128 — no reactivity or
//     persistence demands; measures raw throughput and overheads.
//   - SC (Sense and Compute): wake every five seconds to sample and filter
//     a microphone — reactivity-bound, low persistence.
//   - RT (Radio Transmission): send buffered data over radio — atomic,
//     energy-intensive, persistence-bound, no deadline.
//   - PF (Packet Forwarding): receive unpredictable packets and retransmit
//     them — demands both reactivity and persistence.
//
// RT and PF use the buffer's level guarantee table when it has one (REACT,
// Morphy, Capybara, Dewdrop) to implement the §3.4.1 software-directed
// longevity guarantee: sleep until the level implies enough stored energy
// for the atomic operation, instead of attempting doomed transmissions.
package workload

import (
	"math"

	"react/internal/aes"
	"react/internal/buffer"
	"react/internal/dsp"
	"react/internal/mcu"
	"react/internal/radio"
	"react/internal/rng"
	"react/internal/timekeeper"
)

// LongevityMargin scales the energy requirement used when picking a minimum
// capacitance level for an atomic operation, covering conversion losses and
// the sleep current burned while waiting.
const LongevityMargin = 1.4

// readyForAtomic decides whether software should start an atomic operation
// costing `need` joules. On buffers with a level ladder (REACT, Morphy,
// Capybara, Dewdrop) it implements the §3.4.1 longevity guarantee: the
// level must have reached the one whose guarantee covers the cost, and the
// coarse energy estimate from the present level and voltage must still
// cover it (a level reached earlier can be stale after a previous
// operation drained the buffer). Static buffers have no ladder — they
// attempt the operation blindly, which is exactly how the paper's
// baselines waste energy on doomed transmissions.
func readyForAtomic(env *mcu.Env, need float64) bool {
	if env.Guarantee == nil {
		return true
	}
	need *= LongevityMargin
	lvl, ok := buffer.LevelFor(env.Guarantee, need)
	if ok && env.Level < lvl {
		return false
	}
	return env.UsableEnergy() >= need
}

// DataEncryption is the DE benchmark. Progress is measured in completed
// AES-128 blocks; each block costs a fixed amount of active CPU time, and
// the buffer's software overhead fraction slows progress (this is how the
// paper measures REACT's 1.8 % software penalty).
type DataEncryption struct {
	// ActiveI is the device current while encrypting.
	ActiveI float64
	// BlockTime is the active CPU time per counted encryption unit: one
	// 160-byte record (ten AES blocks) on an MSP430-class core, which
	// lands the counts in the paper's Table 2 magnitude range.
	BlockTime float64

	cipher   *aes.Cipher
	state    [16]byte
	progress float64
	blocks   float64
}

// NewDataEncryption builds the DE workload with the device's active
// current and the default per-block cost.
func NewDataEncryption(activeI float64) *DataEncryption {
	key := []byte("react-de-bench-k")
	c, err := aes.New(key)
	if err != nil {
		panic("workload: static AES key must be valid: " + err.Error())
	}
	return &DataEncryption{ActiveI: activeI, BlockTime: 250e-3, cipher: c}
}

// Name implements mcu.Workload.
func (w *DataEncryption) Name() string { return "DE" }

// Step implements mcu.Workload.
func (w *DataEncryption) Step(env *mcu.Env, dt float64) float64 {
	w.progress += dt * (1 - env.OverheadFrac)
	for w.progress >= w.BlockTime {
		w.progress -= w.BlockTime
		// Do the actual encryption: chain the state so the work cannot be
		// optimized away and stays verifiable.
		w.cipher.Encrypt(w.state[:], w.state[:])
		w.blocks++
	}
	return w.ActiveI
}

// PowerOn implements mcu.Workload.
func (w *DataEncryption) PowerOn(now float64) {}

// PowerLost implements mcu.Workload: the in-flight block is volatile state
// and is lost.
func (w *DataEncryption) PowerLost(now float64) { w.progress = 0 }

// Backup implements mcu.Workload: encryption is pure compute, so the
// backup image freezes the partial block and it resumes after restore —
// the progress a checkpoint scheme saves that a raw brownout destroys.
func (w *DataEncryption) Backup(now float64) {}

// Metrics implements mcu.Workload.
func (w *DataEncryption) Metrics() map[string]float64 {
	return map[string]float64{"blocks": w.blocks}
}

// Digest returns the chained cipher state — a checksum of all work done.
func (w *DataEncryption) Digest() [16]byte { return w.state }

// SenseCompute is the SC benchmark: a deadline fires every Period seconds;
// if the device is awake it runs a Burst of sampling plus digital filtering.
// Deadlines that pass while the device is off are missed — the reactivity
// cost Table 2 exposes for large static buffers.
type SenseCompute struct {
	Period    float64 // deadline spacing (paper: 5 s)
	BurstTime float64 // sampling+filter burst length
	BurstI    float64 // current during the burst (MCU active + microphone)
	SleepI    float64 // deep-sleep current between deadlines

	// Clock, when set, is a remanence timekeeper (the paper's citation
	// [8]) used to re-synchronize the deadline schedule after power
	// failures. When nil the workload assumes perfect timekeeping, which
	// matches the paper's testbed (a secondary MSP430 delivers events).
	Clock *timekeeper.Clock

	next      float64 // next deadline, in the device's believed time
	skew      float64 // believed time − true time, from clock error
	offAt     float64 // true time of the last power loss
	wasOff    bool
	inBurst   bool
	burstLeft float64
	filter    *dsp.Biquad
	noise     *rng.Source

	samples   float64
	missed    float64
	failed    float64
	lastRMS   float64
	timingSum float64 // accumulated |burst start − true schedule slot|
}

// NewSenseCompute builds the SC workload with paper-representative costs.
// The sleepI argument is the MCU's deep-sleep current; the microphone
// (SPU0414 class, ≈120 µA) stays powered so it is ready at each deadline —
// the paper emulates exactly this with an always-on resistor load.
func NewSenseCompute(sleepI float64) *SenseCompute {
	const micI = 120e-6
	return &SenseCompute{
		Period:    5,
		BurstTime: 50e-3,
		BurstI:    2e-3,
		SleepI:    sleepI + micI,
		filter:    dsp.NewLowPass(8000, 500, 0.707),
		noise:     rng.New(0x5c),
	}
}

// Name implements mcu.Workload.
func (w *SenseCompute) Name() string { return "SC" }

// Step implements mcu.Workload.
func (w *SenseCompute) Step(env *mcu.Env, dt float64) float64 {
	if w.inBurst {
		w.burstLeft -= dt * (1 - env.OverheadFrac)
		if w.burstLeft <= 0 {
			w.finishBurst()
		}
		return w.BurstI
	}
	believed := env.Now + w.skew
	if believed >= w.next {
		// Catch up: any deadline older than this step was missed (the
		// device was asleep but did not act — only possible right after
		// boot, handled in PowerOn; this guards drift).
		for w.next <= believed-dt {
			w.next += w.Period
			w.missed++
		}
		w.next += w.Period
		w.inBurst = true
		w.burstLeft = w.BurstTime
		// Timing error against the true schedule grid: how far this
		// burst starts from the nearest k·Period instant.
		off := math.Mod(env.Now, w.Period)
		if off > w.Period/2 {
			off = w.Period - off
		}
		w.timingSum += off
		return w.BurstI
	}
	return w.SleepI
}

// finishBurst performs the actual signal processing: filter a block of
// synthetic microphone samples and record the RMS.
func (w *SenseCompute) finishBurst() {
	w.inBurst = false
	block := make([]float64, 64)
	for i := range block {
		block[i] = w.noise.Norm()
	}
	w.lastRMS = w.filter.ProcessBlock(block)
	w.samples++
}

// PowerOn implements mcu.Workload: deadlines that expired while off are
// missed. With a remanence timekeeper the outage length is only estimated,
// so the believed clock accumulates skew; without one, timekeeping is
// perfect (an external reference, as on the paper's testbed).
func (w *SenseCompute) PowerOn(now float64) {
	if w.Clock != nil && w.wasOff {
		gap := now - w.offAt
		w.Clock.Decay(gap)
		est, ok := w.Clock.Elapsed()
		if ok {
			w.skew += est - gap
		} else {
			// The cell saturated: software has no idea how long it was
			// dark. Restart the schedule from the believed present.
			w.next = now + w.skew + w.Period
		}
	}
	w.wasOff = false
	believed := now + w.skew
	for w.next <= believed {
		w.next += w.Period
		w.missed++
	}
}

// PowerLost implements mcu.Workload: an interrupted burst yields no sample,
// and the timekeeper cell is armed to measure the coming outage.
func (w *SenseCompute) PowerLost(now float64) {
	if w.inBurst {
		w.inBurst = false
		w.failed++
	}
	w.offAt = now
	w.wasOff = true
	if w.Clock != nil {
		w.Clock.Arm()
	}
}

// Backup implements mcu.Workload: a timed sensor read cannot be frozen
// mid-air, so an interrupted burst fails exactly as on power loss, and the
// timekeeper cell is armed in case the scheme gates the device off after
// the burst (re-arming is overwritten by any later real power loss).
func (w *SenseCompute) Backup(now float64) { w.PowerLost(now) }

// Metrics implements mcu.Workload.
func (w *SenseCompute) Metrics() map[string]float64 {
	m := map[string]float64{
		"samples": w.samples,
		"missed":  w.missed,
		"failed":  w.failed,
	}
	if w.samples > 0 {
		m["timing_err_mean"] = w.timingSum / w.samples
	}
	return m
}

// RadioTransmit is the RT benchmark: an endless backlog of buffered data to
// transmit. Each transmission is atomic; on buffers with capacitance
// levels the workload waits in deep sleep for a level guaranteeing the
// transmission energy, otherwise it transmits blindly.
type RadioTransmit struct {
	Radio  radio.Profile
	SleepI float64

	inTX   bool
	txLeft float64

	tx     float64
	failed float64
}

// NewRadioTransmit builds the RT workload.
func NewRadioTransmit(sleepI float64) *RadioTransmit {
	return &RadioTransmit{Radio: radio.DefaultProfile(), SleepI: sleepI}
}

// Name implements mcu.Workload.
func (w *RadioTransmit) Name() string { return "RT" }

// Step implements mcu.Workload.
func (w *RadioTransmit) Step(env *mcu.Env, dt float64) float64 {
	if w.inTX {
		w.txLeft -= dt
		if w.txLeft <= 0 {
			w.inTX = false
			w.tx++
		}
		return w.Radio.TX.Current
	}
	if !readyForAtomic(env, w.Radio.TX.Energy(env.Voltage)) {
		return w.SleepI // §3.4.1: gather energy before the atomic op
	}
	w.inTX = true
	w.txLeft = w.Radio.TX.Duration
	return w.Radio.TX.Current
}

// PowerOn implements mcu.Workload.
func (w *RadioTransmit) PowerOn(now float64) {}

// PowerLost implements mcu.Workload: a transmission cut short is wasted
// energy (the paper's "doomed-to-fail transmissions").
func (w *RadioTransmit) PowerLost(now float64) {
	if w.inTX {
		w.inTX = false
		w.failed++
	}
}

// Backup implements mcu.Workload: a radio transmission cannot be frozen
// mid-air — cutting one for a checkpoint burst wastes it just like a
// brownout would.
func (w *RadioTransmit) Backup(now float64) { w.PowerLost(now) }

// Metrics implements mcu.Workload.
func (w *RadioTransmit) Metrics() map[string]float64 {
	return map[string]float64{"tx": w.tx, "failed": w.failed}
}

// PacketForward is the PF benchmark: packets arrive unpredictably; each
// must be received exactly when it arrives (reactivity) and retransmitted
// later (persistence). Receiving preempts waiting-to-transmit — the §5.4.1
// fungible-energy behaviour.
type PacketForward struct {
	Radio    radio.Profile
	SleepI   float64
	Arrivals []radio.Packet

	nextIdx int
	queue   *radio.Queue

	inRX   bool
	rxLeft float64
	rxPkt  radio.Packet

	inTX   bool
	txLeft float64
	txPkt  radio.Packet

	rx       float64
	tx       float64
	missed   float64
	rxFailed float64
	txFailed float64
}

// NewPacketForward builds the PF workload over an arrival schedule. The
// sleepI argument is the MCU's deep-sleep current; on top of it the device
// keeps a wake-up receiver listening so unpredictable packets can be
// caught at all (the paper's PF peripherals are emulated the same way).
func NewPacketForward(sleepI float64, arrivals []radio.Packet) *PacketForward {
	const wakeupRxI = 20e-6
	return &PacketForward{
		Radio:    radio.DefaultProfile(),
		SleepI:   sleepI + wakeupRxI,
		Arrivals: arrivals,
		queue:    radio.NewQueue(8),
	}
}

// Name implements mcu.Workload.
func (w *PacketForward) Name() string { return "PF" }

// Step implements mcu.Workload.
func (w *PacketForward) Step(env *mcu.Env, dt float64) float64 {
	if w.inRX {
		w.rxLeft -= dt
		if w.rxLeft <= 0 {
			w.inRX = false
			w.rx++
			w.queue.Push(w.rxPkt)
		}
		return w.Radio.RX.Current
	}
	if w.inTX {
		w.txLeft -= dt
		if w.txLeft <= 0 {
			w.inTX = false
			w.tx++
		}
		return w.Radio.TX.Current
	}
	// A new arrival preempts everything else (receive-or-lose): software
	// disregards any pending transmit-longevity wait to serve it (§5.4.1).
	// Arrivals that slipped past while busy or asleep within this step, or
	// that find the buffer too depleted to finish a receive window, are
	// missed.
	for w.nextIdx < len(w.Arrivals) && w.Arrivals[w.nextIdx].Arrival <= env.Now {
		pkt := w.Arrivals[w.nextIdx]
		w.nextIdx++
		if pkt.Arrival <= env.Now-dt {
			w.missed++
			continue
		}
		if env.Guarantee != nil && env.UsableEnergy() < w.Radio.RX.Energy(env.Voltage)*LongevityMargin {
			w.missed++
			continue
		}
		w.inRX = true
		w.rxLeft = w.Radio.RX.Duration
		w.rxPkt = pkt
		return w.Radio.RX.Current
	}
	if w.queue.Len() > 0 {
		if !readyForAtomic(env, w.Radio.TX.Energy(env.Voltage)) {
			return w.SleepI // charge toward the transmit guarantee
		}
		pkt, _ := w.queue.Pop()
		w.inTX = true
		w.txLeft = w.Radio.TX.Duration
		w.txPkt = pkt
		return w.Radio.TX.Current
	}
	return w.SleepI
}

// PowerOn implements mcu.Workload: arrivals that occurred while off were
// missed.
func (w *PacketForward) PowerOn(now float64) {
	for w.nextIdx < len(w.Arrivals) && w.Arrivals[w.nextIdx].Arrival <= now {
		w.nextIdx++
		w.missed++
	}
}

// PowerLost implements mcu.Workload: an interrupted receive loses the
// packet, and an interrupted transmission loses it too — the energy spent
// is wasted (the paper's "doomed-to-fail transmissions") and the device
// goes back to listening after it recovers rather than burning every
// future charge cycle on retries.
func (w *PacketForward) PowerLost(now float64) {
	if w.inRX {
		w.inRX = false
		w.rxFailed++
		w.missed++
	}
	if w.inTX {
		w.inTX = false
		w.txFailed++
	}
}

// Backup implements mcu.Workload: in-flight radio operations cannot be
// suspended — an interrupted receive loses its packet and an interrupted
// transmission is wasted energy, the same accounting as power loss. The
// queued packets survive in the image.
func (w *PacketForward) Backup(now float64) { w.PowerLost(now) }

// Metrics implements mcu.Workload.
func (w *PacketForward) Metrics() map[string]float64 {
	return map[string]float64{
		"rx":        w.rx,
		"tx":        w.tx,
		"missed":    w.missed,
		"rx_failed": w.rxFailed,
		"tx_failed": w.txFailed,
		"dropped":   float64(w.queue.Dropped),
	}
}
