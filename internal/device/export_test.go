package device

// SystemPartition builds a fresh, unshared system partition, for tests
// that compare it with the tree a boot shares.
var SystemPartition = systemPartition
