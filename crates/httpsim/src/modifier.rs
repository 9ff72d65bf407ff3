//! The modifier process: touches one random file every `N` seconds of trace
//! time and checks it in to the accelerator.

use wcc_proto::{CoordMsg, HttpMsg, Message};
use wcc_simnet::{Ctx, Node};
use wcc_traces::Modification;
use wcc_types::{NodeId, ServerId, Url};

/// The modifier node. "For each selected file, the modifier performs a
/// 'touch' … then a 'check-in' of the file, which notifies the accelerator
/// that the file has been modified. After the modifier finishes its work for
/// the five minute interval, it sends a reply back to the time coordinator."
#[derive(Debug)]
pub struct ModifierNode {
    server: ServerId,
    mods: Vec<Modification>,
    next_idx: usize,
    origin: NodeId,
    coordinator: Option<NodeId>,
    /// Check-ins sent.
    pub(crate) notifies_sent: u64,
}

impl ModifierNode {
    pub(crate) fn new(server: ServerId, mods: Vec<Modification>) -> Self {
        ModifierNode {
            server,
            mods,
            next_idx: 0,
            origin: NodeId::new(0),
            coordinator: None,
            notifies_sent: 0,
        }
    }

    pub(crate) fn wire(&mut self, origin: NodeId, coordinator: NodeId) {
        self.origin = origin;
        self.coordinator = Some(coordinator);
    }

    /// Check-ins sent so far.
    pub fn notifies_sent(&self) -> u64 {
        self.notifies_sent
    }
}

impl Node<Message> for ModifierNode {
    fn on_message(&mut self, _from: NodeId, msg: Message, ctx: &mut Ctx<'_, Message>) {
        let Message::Coord(CoordMsg::StepStart { step, window_end }) = msg else {
            debug_assert!(false, "modifier got unexpected message {msg:?}");
            return;
        };
        while let Some(m) = self.mods.get(self.next_idx) {
            if m.at >= window_end {
                break;
            }
            let notify = HttpMsg::Notify {
                url: Url::new(self.server, m.doc),
                at: m.at,
            };
            let size = notify.wire_size();
            ctx.send(self.origin, Message::Http(notify), size);
            self.notifies_sent += 1;
            self.next_idx += 1;
        }
        if let Some(coord) = self.coordinator {
            let done = Message::Coord(CoordMsg::StepDone { step });
            let size = done.wire_size();
            ctx.send(coord, done, size);
        }
    }
}
