package chaos

// RunHeld runs the link battery like Run, and after every event's gap calls
// held with the number of cables the battery holds down.
func RunHeld(n Target, cfg Config, held func(cables int)) (*Report, error) {
	r, err := newLinkBattery(n, cfg)
	if err != nil {
		return nil, err
	}
	return r.runAs(heldProbe{r, held}), nil
}

// heldProbe is a link battery whose audit also reports its held cables.
type heldProbe struct {
	*linkBattery
	held func(int)
}

func (p heldProbe) audit() {
	p.linkBattery.audit()
	p.held(len(p.cut))
}
