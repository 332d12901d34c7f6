//! One module per paper figure. Each `run()` returns a structured result
//! with a `render()` text form; the shape assertions live in the workspace
//! integration tests (`tests/experiments_shape.rs`).

pub mod ablations;
pub mod cloudlet;
pub mod cluster;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig8;
pub mod fig9;
pub mod keepalive;

use containersim::{ContainerEngine, HardwareProfile};
use faas::gateway::Gateway;
use faas::{AppProfile, RuntimeProvider};

/// A gateway over a server-profile engine with pre-pulled images and the
/// given provider, with `apps` registered under their own names.
pub(crate) fn server_gateway<P: RuntimeProvider>(provider: P, apps: &[AppProfile]) -> Gateway<P> {
    gateway_on(HardwareProfile::server(), provider, apps)
}

/// Same on an arbitrary hardware profile.
pub(crate) fn gateway_on<P: RuntimeProvider>(
    hw: HardwareProfile,
    provider: P,
    apps: &[AppProfile],
) -> Gateway<P> {
    let engine = ContainerEngine::with_local_images(hw);
    let mut gw = Gateway::new(engine, provider);
    for app in apps {
        gw.register_app(app.clone());
    }
    gw
}

/// Percentage reduction of `new` relative to `baseline` (positive = faster).
pub fn reduction_pct(baseline: f64, new: f64) -> f64 {
    if baseline == 0.0 {
        return 0.0;
    }
    (1.0 - new / baseline) * 100.0
}
