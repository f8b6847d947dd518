//! `scenario show NAME | dump --all | check [--json FILE]`: inspect and
//! validate the layered registry without running any replay. `show` and
//! `dump` print byte-stable canonical JSON; `check` validates a scenario
//! document from a file or stdin against a copy of the registry.

use odx::config::{ConfigError, ScenarioSpec};

use crate::cli::{Inspect, UsageError};
use crate::{fail, Ctx};

pub fn inspect(ctx: &Ctx, cmd: &Inspect) -> Result<(), UsageError> {
    let registry = &ctx.scenarios;
    match cmd {
        Inspect::Show(name) => {
            let spec = registry.spec(name).ok_or_else(|| {
                let names = registry.names();
                UsageError(ConfigError::unknown("scenario show", "scenario", name, names).message)
            })?;
            println!("{}", spec.to_canonical_json());
        }
        Inspect::Dump => {
            let dumps: Vec<String> =
                registry.all_specs().iter().map(ScenarioSpec::to_canonical_json).collect();
            println!("[{}]", dumps.join(","));
        }
        Inspect::Check => {
            let text = match &ctx.opts.json {
                Some(path) => std::fs::read_to_string(path)
                    .map_err(|e| UsageError(format!("cannot read `{}`: {e}", path.display())))?,
                None => std::io::read_to_string(std::io::stdin())
                    .map_err(|e| UsageError(format!("cannot read stdin: {e}")))?,
            };
            match registry.clone().load_json(&text) {
                Ok(n) => println!("ok: {n} scenario(s)"),
                Err(e) => fail(2, &e.to_string()),
            }
        }
    }
    Ok(())
}
