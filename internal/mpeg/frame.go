package mpeg

import (
	"fmt"
	"math"
)

// Frame is a YCbCr 4:2:0 planar picture. Dimensions must be multiples of 16
// (full macroblocks), as the paper's ALF framing assumes whole macroblocks
// per packet.
type Frame struct {
	W, H      int
	Y, Cb, Cr []byte
}

// NewFrame allocates a frame; w and h must be positive multiples of 16.
//
//scout:assert dimensions come from validated sequence headers; a bad size is decoder corruption
func NewFrame(w, h int) *Frame {
	if w <= 0 || h <= 0 || w%16 != 0 || h%16 != 0 {
		panic(fmt.Sprintf("mpeg: frame size %dx%d not a multiple of 16", w, h))
	}
	return &Frame{
		W: w, H: h,
		Y:  make([]byte, w*h),
		Cb: make([]byte, w/2*h/2),
		Cr: make([]byte, w/2*h/2),
	}
}

// CopyFrom overwrites f with src (same dimensions required).
//
//scout:assert mismatched reference-frame dimensions mean the decoder state is corrupt
func (f *Frame) CopyFrom(src *Frame) {
	if f.W != src.W || f.H != src.H {
		panic("mpeg: CopyFrom dimension mismatch")
	}
	copy(f.Y, src.Y)
	copy(f.Cb, src.Cb)
	copy(f.Cr, src.Cr)
}

// Clone returns an independent copy.
func (f *Frame) Clone() *Frame {
	c := NewFrame(f.W, f.H)
	c.CopyFrom(f)
	return c
}

// MBWidth and MBHeight report the frame size in macroblocks.
func (f *Frame) MBWidth() int  { return f.W / 16 }
func (f *Frame) MBHeight() int { return f.H / 16 }

func clampByte(v int32) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

// PSNR computes the luma peak signal-to-noise ratio between two frames, the
// standard codec-quality metric used by the tests.
func PSNR(a, b *Frame) float64 {
	if a.W != b.W || a.H != b.H {
		panic("mpeg: PSNR dimension mismatch")
	}
	var se float64
	for i := range a.Y {
		d := float64(int(a.Y[i]) - int(b.Y[i]))
		se += d * d
	}
	if se == 0 {
		return 99
	}
	mse := se / float64(len(a.Y))
	return 10 * math.Log10(255*255/mse)
}
