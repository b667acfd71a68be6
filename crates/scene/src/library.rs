//! The scene library: procedural stand-ins for the paper's datasets.
//!
//! Eight scenes mirror the structure of Synthetic-NeRF (bounded single-object
//! scenes with varied geometry and texture frequency); `materials` carries
//! specular (non-diffuse) surfaces to exercise the warp-angle heuristic;
//! `bonsai` and `ignatius` stand in for the Unbounded-360 and Tanks-and-Temples
//! captures (more clutter, larger extents).

use crate::scene::default_checker;
use crate::{AnalyticScene, Material, SceneBuilder, Shape, Texture};
use cicero_math::Vec3;

/// Names of the eight Synthetic-NeRF-like scenes.
pub const SYNTHETIC_SCENES: [&str; 8] = [
    "chair",
    "drums",
    "ficus",
    "hotdog",
    "lego",
    "materials",
    "mic",
    "ship",
];

/// Names of the real-world-like scenes.
pub const REAL_WORLD_SCENES: [&str; 2] = ["bonsai", "ignatius"];

/// Looks up any library scene by name.
pub fn scene_by_name(name: &str) -> Option<AnalyticScene> {
    match name {
        "chair" => Some(chair()),
        "drums" => Some(drums()),
        "ficus" => Some(ficus()),
        "hotdog" => Some(hotdog()),
        "lego" => Some(lego()),
        "materials" => Some(materials()),
        "mic" => Some(mic()),
        "ship" => Some(ship()),
        "bonsai" => Some(bonsai()),
        "ignatius" => Some(ignatius()),
        _ => None,
    }
}

/// A chair: seat, back, four legs.
pub fn chair() -> AnalyticScene {
    let wood = Material::diffuse(Texture::Noise {
        a: Vec3::new(0.45, 0.27, 0.12),
        b: Vec3::new(0.65, 0.45, 0.25),
        scale: 0.15,
    });
    let cushion = Material::diffuse(default_checker(
        Vec3::new(0.75, 0.15, 0.15),
        Vec3::new(0.85, 0.75, 0.65),
    ));
    let mut b = SceneBuilder::new("chair")
        .object(
            Shape::RoundedBox {
                half: Vec3::new(0.5, 0.06, 0.5),
                round: 0.03,
            },
            Vec3::new(0.0, 0.0, 0.0),
            cushion,
        )
        .object(
            Shape::RoundedBox {
                half: Vec3::new(0.5, 0.45, 0.05),
                round: 0.03,
            },
            Vec3::new(0.0, 0.5, -0.47),
            wood,
        );
    for (sx, sz) in [(-1.0_f32, -1.0_f32), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)] {
        b = b.object(
            Shape::Cylinder {
                radius: 0.05,
                half_height: 0.35,
            },
            Vec3::new(sx * 0.42, -0.42, sz * 0.42),
            wood,
        );
    }
    b.build()
}

/// A drum kit: cylindrical shells and spherical toms.
pub fn drums() -> AnalyticScene {
    let shell = Material::diffuse(Texture::Stripes {
        a: Vec3::new(0.8, 0.1, 0.1),
        b: Vec3::new(0.9, 0.85, 0.8),
        period: 0.09,
    });
    let metal = Material::solid(Vec3::splat(0.7)).with_specular(0.35, 24.0);
    SceneBuilder::new("drums")
        .object(
            Shape::Cylinder {
                radius: 0.45,
                half_height: 0.28,
            },
            Vec3::new(0.0, -0.2, 0.0),
            shell,
        )
        .object(
            Shape::Cylinder {
                radius: 0.25,
                half_height: 0.16,
            },
            Vec3::new(-0.55, 0.15, 0.2),
            shell,
        )
        .object(
            Shape::Cylinder {
                radius: 0.25,
                half_height: 0.16,
            },
            Vec3::new(0.55, 0.15, 0.2),
            shell,
        )
        .object(
            Shape::Sphere { radius: 0.18 },
            Vec3::new(-0.3, 0.45, -0.3),
            metal,
        )
        .object(
            Shape::Sphere { radius: 0.18 },
            Vec3::new(0.3, 0.45, -0.3),
            metal,
        )
        .object(
            Shape::Torus {
                major: 0.35,
                minor: 0.025,
            },
            Vec3::new(0.0, 0.6, 0.15),
            metal,
        )
        .build()
}

/// A potted plant: trunk plus foliage clusters.
pub fn ficus() -> AnalyticScene {
    let leaves = Material::diffuse(Texture::Noise {
        a: Vec3::new(0.05, 0.35, 0.08),
        b: Vec3::new(0.25, 0.65, 0.2),
        scale: 0.08,
    });
    let trunk = Material::solid(Vec3::new(0.4, 0.26, 0.13));
    let pot = Material::diffuse(Texture::Stripes {
        a: Vec3::new(0.6, 0.3, 0.2),
        b: Vec3::new(0.5, 0.24, 0.16),
        period: 0.06,
    });
    let mut b = SceneBuilder::new("ficus")
        .object(
            Shape::Cylinder {
                radius: 0.3,
                half_height: 0.2,
            },
            Vec3::new(0.0, -0.75, 0.0),
            pot,
        )
        .object(
            Shape::Capsule {
                a: Vec3::new(0.0, -0.6, 0.0),
                b: Vec3::new(0.05, 0.3, 0.02),
                radius: 0.06,
            },
            Vec3::ZERO,
            trunk,
        );
    // Deterministic foliage cluster placement.
    for i in 0..9 {
        let a = i as f32 * 0.7;
        let r = 0.28 + 0.12 * ((i * 37 % 11) as f32 / 11.0);
        let y = 0.3 + 0.35 * ((i * 53 % 7) as f32 / 7.0);
        b = b.object(
            Shape::Sphere {
                radius: 0.16 + 0.05 * ((i % 3) as f32 / 3.0),
            },
            Vec3::new(r * a.cos(), y, r * a.sin()),
            leaves,
        );
    }
    b.build()
}

/// A hotdog on a plate.
pub fn hotdog() -> AnalyticScene {
    let sausage = Material::diffuse(Texture::Noise {
        a: Vec3::new(0.65, 0.25, 0.1),
        b: Vec3::new(0.8, 0.4, 0.2),
        scale: 0.07,
    });
    let bun = Material::diffuse(Texture::Noise {
        a: Vec3::new(0.85, 0.65, 0.35),
        b: Vec3::new(0.95, 0.8, 0.55),
        scale: 0.12,
    });
    let plate = Material::solid(Vec3::splat(0.9)).with_specular(0.15, 12.0);
    SceneBuilder::new("hotdog")
        .object(
            Shape::Cylinder {
                radius: 0.8,
                half_height: 0.04,
            },
            Vec3::new(0.0, -0.3, 0.0),
            plate,
        )
        .object(
            Shape::Capsule {
                a: Vec3::new(-0.45, 0.0, 0.0),
                b: Vec3::new(0.45, 0.0, 0.0),
                radius: 0.16,
            },
            Vec3::new(0.0, -0.1, 0.1),
            bun,
        )
        .object(
            Shape::Capsule {
                a: Vec3::new(-0.5, 0.0, 0.0),
                b: Vec3::new(0.5, 0.0, 0.0),
                radius: 0.08,
            },
            Vec3::new(0.0, 0.04, 0.1),
            sausage,
        )
        .object(
            Shape::Capsule {
                a: Vec3::new(-0.42, 0.0, 0.0),
                b: Vec3::new(0.42, 0.0, 0.0),
                radius: 0.15,
            },
            Vec3::new(0.0, -0.08, -0.25),
            bun,
        )
        .build()
}

/// A blocky bulldozer (fine checker texture for high-frequency content).
pub fn lego() -> AnalyticScene {
    let yellow = Material::diffuse(Texture::Checker {
        a: Vec3::new(0.9, 0.75, 0.1),
        b: Vec3::new(0.8, 0.6, 0.05),
        scale: 0.07,
    });
    let grey = Material::diffuse(Texture::Checker {
        a: Vec3::splat(0.45),
        b: Vec3::splat(0.3),
        scale: 0.05,
    });
    let black = Material::solid(Vec3::splat(0.08));
    let mut b = SceneBuilder::new("lego")
        .object(
            Shape::Box {
                half: Vec3::new(0.55, 0.12, 0.35),
            },
            Vec3::new(0.0, -0.25, 0.0),
            grey,
        )
        .object(
            Shape::Box {
                half: Vec3::new(0.3, 0.2, 0.3),
            },
            Vec3::new(-0.15, 0.08, 0.0),
            yellow,
        )
        .object(
            Shape::Box {
                half: Vec3::new(0.12, 0.12, 0.26),
            },
            Vec3::new(0.25, 0.02, 0.0),
            yellow,
        )
        .object(
            Shape::Box {
                half: Vec3::new(0.04, 0.18, 0.3),
            },
            Vec3::new(0.52, 0.0, 0.0),
            yellow,
        );
    for i in 0..3 {
        let x = -0.35 + i as f32 * 0.35;
        b = b
            .object(
                Shape::Cylinder {
                    radius: 0.12,
                    half_height: 0.02,
                },
                Vec3::new(x, -0.42, 0.38),
                black,
            )
            .object(
                Shape::Cylinder {
                    radius: 0.12,
                    half_height: 0.02,
                },
                Vec3::new(x, -0.42, -0.38),
                black,
            );
    }
    b.build()
}

/// A grid of spheres with varying specular strength (the non-diffuse scene).
pub fn materials() -> AnalyticScene {
    let mut b = SceneBuilder::new("materials").object(
        Shape::Box {
            half: Vec3::new(1.0, 0.04, 1.0),
        },
        Vec3::new(0.0, -0.35, 0.0),
        Material::diffuse(default_checker(Vec3::splat(0.25), Vec3::splat(0.6))),
    );
    for row in 0..3 {
        for col in 0..3 {
            let hue = (row * 3 + col) as f32 / 9.0;
            let color = Vec3::new(
                0.5 + 0.5 * (hue * std::f32::consts::TAU).cos(),
                0.5 + 0.5 * ((hue + 0.33) * std::f32::consts::TAU).cos(),
                0.5 + 0.5 * ((hue + 0.66) * std::f32::consts::TAU).cos(),
            );
            // Specular strength rises across the grid: 0.0 (diffuse) → 0.8.
            let spec = (row * 3 + col) as f32 / 10.0;
            b = b.object(
                Shape::Sphere { radius: 0.16 },
                Vec3::new(col as f32 * 0.55 - 0.55, -0.12, row as f32 * 0.55 - 0.55),
                Material::solid(color).with_specular(spec, 28.0),
            );
        }
    }
    b.build()
}

/// A studio microphone.
pub fn mic() -> AnalyticScene {
    let mesh = Material::diffuse(Texture::Checker {
        a: Vec3::splat(0.65),
        b: Vec3::splat(0.35),
        scale: 0.03,
    });
    let metal = Material::solid(Vec3::splat(0.55)).with_specular(0.4, 20.0);
    let base = Material::solid(Vec3::splat(0.12));
    SceneBuilder::new("mic")
        .object(
            Shape::Sphere { radius: 0.28 },
            Vec3::new(0.0, 0.55, 0.0),
            mesh,
        )
        .object(
            Shape::Torus {
                major: 0.3,
                minor: 0.03,
            },
            Vec3::new(0.0, 0.55, 0.0),
            metal,
        )
        .object(
            Shape::Capsule {
                a: Vec3::new(0.0, -0.6, 0.0),
                b: Vec3::new(0.0, 0.25, 0.0),
                radius: 0.05,
            },
            Vec3::ZERO,
            metal,
        )
        .object(
            Shape::Cylinder {
                radius: 0.35,
                half_height: 0.05,
            },
            Vec3::new(0.0, -0.68, 0.0),
            base,
        )
        .build()
}

/// A sailing ship on noisy water.
pub fn ship() -> AnalyticScene {
    let hull = Material::diffuse(Texture::Stripes {
        a: Vec3::new(0.35, 0.2, 0.1),
        b: Vec3::new(0.45, 0.28, 0.15),
        period: 0.07,
    });
    let sail = Material::solid(Vec3::new(0.92, 0.9, 0.82));
    let water = Material::diffuse(Texture::Noise {
        a: Vec3::new(0.05, 0.2, 0.35),
        b: Vec3::new(0.15, 0.4, 0.55),
        scale: 0.1,
    })
    .with_specular(0.3, 8.0);
    SceneBuilder::new("ship")
        .object(
            Shape::Box {
                half: Vec3::new(1.1, 0.03, 1.1),
            },
            Vec3::new(0.0, -0.4, 0.0),
            water,
        )
        .object(
            Shape::RoundedBox {
                half: Vec3::new(0.55, 0.14, 0.2),
                round: 0.06,
            },
            Vec3::new(0.0, -0.22, 0.0),
            hull,
        )
        .object(
            Shape::Cylinder {
                radius: 0.03,
                half_height: 0.45,
            },
            Vec3::new(0.0, 0.2, 0.0),
            hull,
        )
        .object(
            Shape::Box {
                half: Vec3::new(0.28, 0.22, 0.01),
            },
            Vec3::new(0.0, 0.28, 0.04),
            sail,
        )
        .object(
            Shape::Cylinder {
                radius: 0.025,
                half_height: 0.3,
            },
            Vec3::new(0.45, 0.0, 0.0),
            hull,
        )
        .build()
}

/// A bonsai on a table — stands in for the Unbounded-360 `bonsai` capture.
pub fn bonsai() -> AnalyticScene {
    let foliage = Material::diffuse(Texture::Noise {
        a: Vec3::new(0.08, 0.3, 0.06),
        b: Vec3::new(0.3, 0.55, 0.15),
        scale: 0.06,
    });
    let trunk = Material::diffuse(Texture::Noise {
        a: Vec3::new(0.3, 0.2, 0.1),
        b: Vec3::new(0.45, 0.32, 0.18),
        scale: 0.05,
    });
    let pot = Material::solid(Vec3::new(0.35, 0.2, 0.5)).with_specular(0.2, 10.0);
    let table = Material::diffuse(default_checker(
        Vec3::new(0.55, 0.4, 0.25),
        Vec3::new(0.4, 0.28, 0.16),
    ));
    let mut b = SceneBuilder::new("bonsai")
        .object(
            Shape::Box {
                half: Vec3::new(1.4, 0.05, 1.4),
            },
            Vec3::new(0.0, -0.75, 0.0),
            table,
        )
        .object(
            Shape::Cylinder {
                radius: 0.42,
                half_height: 0.18,
            },
            Vec3::new(0.0, -0.5, 0.0),
            pot,
        )
        .object(
            Shape::Capsule {
                a: Vec3::new(0.0, -0.35, 0.0),
                b: Vec3::new(0.22, 0.25, 0.1),
                radius: 0.07,
            },
            Vec3::ZERO,
            trunk,
        )
        .object(
            Shape::Capsule {
                a: Vec3::new(0.1, 0.0, 0.05),
                b: Vec3::new(-0.2, 0.35, -0.1),
                radius: 0.045,
            },
            Vec3::ZERO,
            trunk,
        );
    for i in 0..7 {
        let a = i as f32 * 0.9 + 0.3;
        let r = 0.25 + 0.15 * ((i * 29 % 13) as f32 / 13.0);
        let y = 0.35 + 0.3 * ((i * 41 % 9) as f32 / 9.0);
        b = b.object(
            Shape::Sphere {
                radius: 0.14 + 0.06 * ((i % 4) as f32 / 4.0),
            },
            Vec3::new(r * a.cos(), y, r * a.sin()),
            foliage,
        );
    }
    b.build()
}

/// A statue on a pedestal — stands in for Tanks-and-Temples `Ignatius`.
pub fn ignatius() -> AnalyticScene {
    let bronze = Material::diffuse(Texture::Noise {
        a: Vec3::new(0.25, 0.2, 0.12),
        b: Vec3::new(0.45, 0.38, 0.22),
        scale: 0.05,
    })
    .with_specular(0.25, 14.0);
    let stone = Material::diffuse(Texture::Noise {
        a: Vec3::splat(0.45),
        b: Vec3::splat(0.65),
        scale: 0.12,
    });
    SceneBuilder::new("ignatius")
        .object(
            Shape::Box {
                half: Vec3::new(0.5, 0.3, 0.5),
            },
            Vec3::new(0.0, -0.75, 0.0),
            stone,
        )
        // Torso.
        .object(
            Shape::Capsule {
                a: Vec3::new(0.0, -0.35, 0.0),
                b: Vec3::new(0.0, 0.25, 0.0),
                radius: 0.2,
            },
            Vec3::ZERO,
            bronze,
        )
        // Head.
        .object(
            Shape::Sphere { radius: 0.14 },
            Vec3::new(0.0, 0.5, 0.0),
            bronze,
        )
        // Arms.
        .object(
            Shape::Capsule {
                a: Vec3::new(-0.18, 0.2, 0.0),
                b: Vec3::new(-0.42, -0.15, 0.12),
                radius: 0.06,
            },
            Vec3::ZERO,
            bronze,
        )
        .object(
            Shape::Capsule {
                a: Vec3::new(0.18, 0.2, 0.0),
                b: Vec3::new(0.45, 0.05, -0.05),
                radius: 0.06,
            },
            Vec3::ZERO,
            bronze,
        )
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RadianceSource;

    #[test]
    fn all_library_scenes_resolve() {
        for name in SYNTHETIC_SCENES.iter().chain(REAL_WORLD_SCENES.iter()) {
            let s = scene_by_name(name).unwrap_or_else(|| panic!("missing scene {name}"));
            assert_eq!(&s.name, name);
            assert!(!s.objects().is_empty());
        }
        assert!(scene_by_name("nonexistent").is_none());
    }

    #[test]
    fn materials_scene_is_non_diffuse_lego_is_diffuse() {
        assert!(materials().has_specular());
        assert!(!lego().has_specular());
    }

    #[test]
    fn scenes_have_density_somewhere() {
        for s in SYNTHETIC_SCENES.iter().map(|n| scene_by_name(n).unwrap()) {
            let b = s.bounds();
            let mut found = false;
            // Scan a coarse grid for occupied space.
            for i in 0..4096 {
                let p = cicero_math::Vec3::new(
                    b.min.x + b.size().x * ((i % 16) as f32 + 0.5) / 16.0,
                    b.min.y + b.size().y * (((i / 16) % 16) as f32 + 0.5) / 16.0,
                    b.min.z + b.size().z * ((i / 256) as f32 + 0.5) / 16.0,
                );
                if s.density_at(p) > 0.0 {
                    found = true;
                    break;
                }
            }
            assert!(found, "scene {} looks empty", s.name);
        }
    }

    #[test]
    fn synthetic_scene_count_matches_paper_dataset() {
        assert_eq!(SYNTHETIC_SCENES.len(), 8); // Synthetic-NeRF has 8 scenes
    }
}
