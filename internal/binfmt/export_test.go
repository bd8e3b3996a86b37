package binfmt

// ForceBigEndian makes the package take its big-endian host paths (the
// byte swaps and the decode-copy) until the returned function is called.
func ForceBigEndian() (restore func()) {
	prev := hostLittleEndian
	hostLittleEndian = false
	return func() { hostLittleEndian = prev }
}

// HostLittleEndian reports what the package detected at start-up.
func HostLittleEndian() bool { return hostLittleEndian }
