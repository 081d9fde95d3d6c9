package cria

// SegmentChunkDigest exposes the segment chunk identity to the
// allocation pins.
var SegmentChunkDigest = segmentChunkDigest
