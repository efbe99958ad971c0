package users

// Habituation: "Herding may also strengthen the widely documented
// habituation effect in both privacy and security notices"
// (Section 5.2, citing Böhme & Köpsell's "Trained to Accept?" field
// experiment). As users see ever more near-identical consent dialogs,
// they respond faster and accept more — CMP standardization makes the
// dialogs near-identical across the web.

// Habituation models a visitor's exposure to standardized dialogs.
type Habituation struct {
	// Exposures is the number of consent dialogs the user has already
	// dismissed.
	Exposures int
	// SpeedFloor bounds how much faster a habituated user can get
	// (fraction of the unhabituated interaction time, default 0.55).
	SpeedFloor float64
	// AcceptShift bounds the maximum increase in accept propensity
	// (default 0.10, reached asymptotically).
	AcceptShift float64
	// HalfLife is the exposure count at which half the effect is
	// reached (default 12).
	HalfLife float64
}

// DefaultHabituation returns the calibrated effect strengths.
func DefaultHabituation(exposures int) Habituation {
	return Habituation{
		Exposures:   exposures,
		SpeedFloor:  0.55,
		AcceptShift: 0.10,
		HalfLife:    12,
	}
}

// saturation maps exposures to effect saturation in [0,1).
func (h Habituation) saturation() float64 {
	if h.Exposures <= 0 {
		return 0
	}
	hl := h.HalfLife
	if hl <= 0 {
		hl = 12
	}
	x := float64(h.Exposures)
	return x / (x + hl)
}

// TimeFactor scales a dialog interaction time: 1.0 for a fresh user,
// approaching SpeedFloor for a heavily habituated one.
func (h Habituation) TimeFactor() float64 {
	floor := h.SpeedFloor
	if floor <= 0 || floor > 1 {
		floor = 0.55
	}
	return 1 - (1-floor)*h.saturation()
}

// AcceptBoost is the additive increase in accept probability caused by
// habituation ("trained to accept").
func (h Habituation) AcceptBoost() float64 {
	shift := h.AcceptShift
	if shift < 0 {
		shift = 0
	}
	return shift * h.saturation()
}

// Apply returns the visitor with habituation folded into their speed
// and preference: interaction latencies shrink and a slice of
// intrinsic rejectors flips to accepting. The draw uses the visitor's
// Persistence as the tie-breaking uniform, keeping Apply deterministic
// per visitor.
func (h Habituation) Apply(v Visitor) Visitor {
	v.Speed *= h.TimeFactor()
	if v.Pref == PrefReject && v.Persistence < h.AcceptBoost()*2 {
		// Low-persistence rejectors are the first to be trained into
		// accepting; the factor 2 converts the population-level boost
		// into the conditional flip rate at the default reject share.
		v.Pref = PrefAccept
	}
	return v
}
