package mac

// Clashing exposes the deliberately colliding test protocol to the external
// test package.
type Clashing = clashing
