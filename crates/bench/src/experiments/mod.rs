//! The experiment suite: one module per paper result (see DESIGN.md §5).
//!
//! Each module exposes `run()`, which prints a Markdown section comparing
//! the paper's claim with measured behaviour. `rfsp experiment --id eN`
//! runs one experiment; `--id all` ([`run_all`]) runs the whole suite.

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;

/// Run the complete suite in order.
pub fn run_all() {
    println!("# rfsp experiment suite");
    println!();
    println!("Machine-measured reproduction of every result in Kanellakis &");
    println!("Shvartsman, PODC 1991. Work is in completed update cycles (S).");
    e1::run();
    e2::run();
    e3::run();
    e4::run();
    e5::run();
    e6::run();
    e7::run();
    e8::run();
    e9::run();
    e10::run();
    e11::run();
    e12::run();
    e13::run();
}
