//! Dense frame buffers: generic images, RGB frames and depth maps.

use crate::Vec3;
use std::path::Path;

/// A dense, row-major 2-D buffer of `T`.
#[derive(Debug, Clone, PartialEq)]
pub struct Image<T> {
    width: usize,
    height: usize,
    data: Vec<T>,
}

/// An RGB radiance frame (linear color, `f32` per channel).
pub type RgbImage = Image<Vec3>;

/// A z-depth map; `f32::INFINITY` marks background/void pixels.
pub type DepthMap = Image<f32>;

impl<T: Clone> Image<T> {
    /// Creates an image filled with `fill`.
    pub fn new(width: usize, height: usize, fill: T) -> Self {
        Image {
            width,
            height,
            data: vec![fill; width * height],
        }
    }

    /// Creates an image by evaluating `f(x, y)` at every pixel.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Image {
            width,
            height,
            data,
        }
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total pixel count.
    #[inline]
    pub fn pixel_count(&self) -> usize {
        self.data.len()
    }

    /// Immutable pixel access.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> &T {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        &self.data[y * self.width + x]
    }

    /// Mutable pixel access.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[inline]
    pub fn get_mut(&mut self, x: usize, y: usize) -> &mut T {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        &mut self.data[y * self.width + x]
    }

    /// Raw row-major pixel slice.
    #[inline]
    pub fn pixels(&self) -> &[T] {
        &self.data
    }

    /// Overwrites every pixel with `value`, keeping the allocation — the
    /// reuse primitive behind zero-allocation frame loops (e.g. the warp
    /// output buffers of `cicero::sparw::warp_frame_into`).
    pub fn fill(&mut self, value: T) {
        self.data.fill(value);
    }

    /// Raw mutable row-major pixel slice.
    #[inline]
    pub fn pixels_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl RgbImage {
    /// A black image.
    pub fn black(width: usize, height: usize) -> Self {
        Image::new(width, height, Vec3::ZERO)
    }

    /// Bilinearly samples the image at continuous pixel coordinates, clamping
    /// to the border. Used by the DS-2 baseline's upsampling step.
    pub fn sample_bilinear(&self, u: f32, v: f32) -> Vec3 {
        let x = (u - 0.5).clamp(0.0, (self.width - 1) as f32);
        let y = (v - 0.5).clamp(0.0, (self.height - 1) as f32);
        let x0 = x.floor() as usize;
        let y0 = y.floor() as usize;
        let x1 = (x0 + 1).min(self.width - 1);
        let y1 = (y0 + 1).min(self.height - 1);
        let fx = x - x0 as f32;
        let fy = y - y0 as f32;
        let top = self.get(x0, y0).lerp(*self.get(x1, y0), fx);
        let bot = self.get(x0, y1).lerp(*self.get(x1, y1), fx);
        top.lerp(bot, fy)
    }

    /// Upsamples by an integer factor with bilinear interpolation (DS-2's
    /// reconstruction step).
    pub fn upsample_bilinear(&self, factor: usize) -> RgbImage {
        assert!(factor >= 1);
        let (w, h) = (self.width * factor, self.height * factor);
        Image::from_fn(w, h, |x, y| {
            let u = (x as f32 + 0.5) / factor as f32;
            let v = (y as f32 + 0.5) / factor as f32;
            self.sample_bilinear(u, v)
        })
    }

    /// Writes the image as a binary PPM file (values tone-clamped to `[0, 1]`).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn write_ppm(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(self.data.len() * 3 + 64);
        buf.extend_from_slice(format!("P6\n{} {}\n255\n", self.width, self.height).as_bytes());
        for p in &self.data {
            for c in [p.x, p.y, p.z] {
                buf.push((c.clamp(0.0, 1.0) * 255.0).round() as u8);
            }
        }
        std::fs::write(path, buf)
    }
}

impl DepthMap {
    /// A depth map with every pixel at infinity (all background).
    pub fn empty(width: usize, height: usize) -> Self {
        Image::new(width, height, f32::INFINITY)
    }

    /// Fraction of pixels with finite depth (i.e. covered by geometry).
    pub fn coverage(&self) -> f32 {
        let finite = self.data.iter().filter(|d| d.is_finite()).count();
        finite as f32 / self.data.len().max(1) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_layout_is_row_major() {
        let img = Image::from_fn(3, 2, |x, y| (x, y));
        assert_eq!(*img.get(2, 0), (2, 0));
        assert_eq!(*img.get(0, 1), (0, 1));
        assert_eq!(img.pixels()[3], (0, 1));
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_panics() {
        let img = RgbImage::black(4, 4);
        let _ = img.get(4, 0);
    }

    #[test]
    fn bilinear_sampling_interpolates() {
        let mut img = RgbImage::black(2, 1);
        *img.get_mut(1, 0) = Vec3::ONE;
        let mid = img.sample_bilinear(1.0, 0.5);
        assert!((mid.x - 0.5).abs() < 1e-5);
    }

    #[test]
    fn upsample_doubles_dimensions() {
        let img = RgbImage::black(5, 7);
        let up = img.upsample_bilinear(2);
        assert_eq!(up.width(), 10);
        assert_eq!(up.height(), 14);
    }

    #[test]
    fn upsample_preserves_constant_images() {
        let img = Image::new(4, 4, Vec3::splat(0.25));
        let up = img.upsample_bilinear(2);
        for p in up.pixels() {
            assert!((p.x - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn depth_coverage_counts_finite() {
        let mut d = DepthMap::empty(2, 2);
        *d.get_mut(0, 0) = 1.0;
        *d.get_mut(1, 1) = 2.0;
        assert!((d.coverage() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn ppm_write_roundtrips_header() {
        let img = RgbImage::black(3, 2);
        let dir = std::env::temp_dir().join("cicero_math_test.ppm");
        img.write_ppm(&dir).unwrap();
        let bytes = std::fs::read(&dir).unwrap();
        assert!(bytes.starts_with(b"P6\n3 2\n255\n"));
        assert_eq!(bytes.len(), b"P6\n3 2\n255\n".len() + 18);
        let _ = std::fs::remove_file(dir);
    }
}
