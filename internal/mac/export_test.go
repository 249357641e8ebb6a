package mac

// Clashing exposes the deliberately colliding test protocol to the external
// test package.
type Clashing = clashing

// SlotObserved reports whether the coordinator's fire or sense observer is
// installed.
func (c *Contention) SlotObserved() bool { return c.fireObs != nil || c.senseObs != nil }
